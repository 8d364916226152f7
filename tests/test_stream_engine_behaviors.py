"""Behavioural tests: memtable-full flushes, init-phase desync and the
result views."""

import numpy as np
import pytest

from repro.config import CheckpointConfig, ClusterConfig, CostModel
from repro.lsm import KiB, LSMOptions
from repro.stream import ConstantSource, PiecewiseSource, StageSpec, StreamJob


def small_cluster(**overrides):
    kwargs = dict(
        stages=[
            StageSpec("a", parallelism=4, state_entry_bytes=100.0,
                      distinct_keys=4000, selectivity=1.0),
            StageSpec("b", parallelism=4, state_entry_bytes=100.0,
                      distinct_keys=2000),
        ],
        source=ConstantSource(4000.0),
        cluster=ClusterConfig(num_nodes=2, cores_per_node=4),
        checkpoint=CheckpointConfig(interval_s=4.0, first_at_s=4.0),
        cost=CostModel(cpu_seconds_per_message=0.0002),
        seed=3,
    )
    kwargs.update(overrides)
    return StreamJob(**kwargs)


def test_memtable_full_triggers_flush_between_checkpoints():
    """§3.3: size-triggered flushes happen when the buffer is small
    relative to the write volume — the source of initial-counter skew."""
    job = small_cluster(
        lsm_options_factory=lambda spec, idx: LSMOptions(
            write_buffer_size=8 * KiB
        ),
        checkpoint=CheckpointConfig(interval_s=60.0, first_at_s=60.0),
    )
    job.run(20.0)  # no checkpoint fires, yet flushes happen
    reasons = {s.name.split("-")[0] for s in job.collector.spans}
    flushes = job.collector.spans.spans(kind="flush")
    assert flushes, "no memtable-full flushes occurred"
    some_store = job.stage("a").instances[0].store
    assert some_store.stats.memtable_full_flushes > 0


def test_init_phase_desynchronizes_l0_counters():
    """A heavy initialization phase followed by steady state leaves
    different stages with different L0 counts — the paper's explanation
    for why the statistical alignment is unpredictable."""
    job = small_cluster(
        source=PiecewiseSource([(0.0, 12000.0), (10.0, 4000.0)]),
        lsm_options_factory=lambda spec, idx: LSMOptions(
            write_buffer_size=int(40 * KiB) if spec.name == "a" else 64 * KiB
        ),
        checkpoint=CheckpointConfig(interval_s=8.0, first_at_s=12.0),
    )
    job.run(30.0)
    counts_a = {inst.store.l0_file_count for inst in job.stage("a").instances}
    counts_b = {inst.store.l0_file_count for inst in job.stage("b").instances}
    # the stages end the init phase on different counter values —
    # their future compaction bursts will not land on the same checkpoint
    assert counts_a != counts_b
    flushes_a = sum(i.store.stats.flush_count for i in job.stage("a").instances)
    flushes_b = sum(i.store.stats.flush_count for i in job.stage("b").instances)
    assert flushes_a > flushes_b  # tighter buffer + init burst flushed more
    a_store = job.stage("a").instances[0].store
    assert a_store.stats.memtable_full_flushes > 0


def test_result_queue_series_shape():
    job = small_cluster()
    result = job.run(20.0)
    times, queue = result.queue_series("a", 0.0, 20.0, dt=0.1)
    assert len(times) == len(queue) == 200
    assert queue.min() >= 0.0


def test_result_concurrency_series():
    job = small_cluster()
    result = job.run(30.0)
    times, flush_c = result.concurrency("flush", 0.0, 30.0)
    assert flush_c.max() >= 1
    _t, comp_c = result.concurrency("compaction", 0.0, 30.0, stage="a")
    assert comp_c.max() >= 0


def test_result_stage_latency_per_stage():
    job = small_cluster()
    result = job.run(20.0)
    t_a, lat_a, w_a = result.stage_latency("a", 2.0, 20.0)
    t_b, lat_b, _w = result.stage_latency("b", 2.0, 20.0)
    assert len(t_a) == len(lat_a) == len(t_b)
    assert np.all(lat_a >= 0) and np.all(lat_b >= 0)
    assert w_a.sum() > 0


def test_latency_timeline_windows_cover_span():
    job = small_cluster()
    result = job.run(20.0)
    times, p999 = result.latency_timeline(0.999, window=1.0, start=2.0, end=20.0)
    assert times[0] == pytest.approx(2.0)
    assert len(times) == 18


def test_checkpoint_stats_visible_via_result():
    job = small_cluster()
    result = job.run(20.0)
    stats = result.checkpoint_stats()
    assert len(stats) == len(job.coordinator.records)
    assert stats[0].flush_count.get("a", 0) == 4

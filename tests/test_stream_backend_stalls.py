"""Unit tests for write stalls and backend accounting."""

import pytest

from repro.config import CheckpointConfig, ClusterConfig, CostModel
from repro.core import MitigationPlan
from repro.errors import SimulationError
from repro.stream import ConstantSource, StageSpec, StreamJob
from repro.stream.state_backend import stall_level


def starved_job():
    """A deployment whose single compaction thread cannot keep up."""
    return StreamJob(
        stages=[StageSpec("s", parallelism=8, state_entry_bytes=500.0,
                          distinct_keys=8000)],
        source=ConstantSource(8000.0),
        cluster=ClusterConfig(num_nodes=1, cores_per_node=4),
        checkpoint=CheckpointConfig(interval_s=2.0, first_at_s=2.0),
        cost=CostModel(cpu_seconds_per_message=0.0002,
                       compaction_cpu_seconds_per_mb=3.0),
        mitigation=MitigationPlan(compaction_threads=1),
        seed=7,
    )


def test_starved_compaction_accumulates_l0_and_stalls():
    job = starved_job()
    job.run(120.0)
    assert job.backend.write_stall_events > 0
    stalled = [
        inst for inst in job.stage("s").instances if inst.stall_level > 0
    ]
    assert stalled, "no instance reached a stall level"


def test_stall_levels_follow_l0_triggers():
    job = starved_job()
    instance = job.stage("s").instances[0]
    options = instance.store.options
    # below slowdown: no stall
    instance.stall_level = 0.7  # will be overwritten by _update_stall
    job.backend._update_stall(instance)
    assert instance.stall_level == 0.0
    # force L0 count to the slowdown trigger
    from repro.lsm import SSTable

    for _ in range(options.l0_slowdown_trigger):
        instance.store.levels.add_l0(SSTable([], logical_bytes=10, level=0))
    job.backend._update_stall(instance)
    assert instance.stall_level == 0.5
    for _ in range(options.l0_stop_trigger - options.l0_slowdown_trigger):
        instance.store.levels.add_l0(SSTable([], logical_bytes=10, level=0))
    job.backend._update_stall(instance)
    assert instance.stall_level == 1.0
    # a restore re-derives the level from the rewound level structure
    # (no checkpoint completed yet: a cold start with an empty L0)
    info = job.coordinator.restore_instance(instance)
    assert info["checkpoint_id"] is None
    assert instance.stall_level == stall_level(instance.store) == 0.0


def test_flush_of_stateless_instance_rejected():
    job = StreamJob(
        stages=[StageSpec("x", parallelism=1, stateful=False)],
        source=ConstantSource(10.0),
        cluster=ClusterConfig(num_nodes=1, cores_per_node=2),
        seed=1,
    )
    instance = job.stage("x").instances[0]
    with pytest.raises(SimulationError):
        job.backend.flush_instance(instance)


def test_backend_counters_track_jobs():
    job = starved_job()
    job.run(20.0)
    assert job.backend.flush_jobs_started > 0
    spans = job.collector.spans
    assert job.backend.flush_jobs_started >= len(spans.spans(kind="flush"))

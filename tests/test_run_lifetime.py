"""What a finished run keeps alive.

``Simulator.run`` suspends the cyclic collector, so everything a run
still references when it ends is walked and freed by the collector
afterwards.  A finished pool job keeps only its timings and metadata,
and a completed checkpoint only the names of the instances that acked;
the snapshots live on in the coordinator's restore table.
"""

import gc

import pytest

from repro.api import ExperimentSettings, run_scenario
from repro.scenarios.run import build_scenario_job

SETTINGS = ExperimentSettings(duration_s=40.0, warmup_s=10.0, seed=1)


@pytest.fixture(scope="module")
def finished_run():
    """A short seeded ``baseline_traffic`` run, with what each pool job
    still held when the pool reported it at "end"."""
    job = build_scenario_job("baseline_traffic", seed=SETTINGS.seed)
    ends = []

    def on_event(pool_job, what):
        if what == "end":
            ends.append((pool_job.kind, pool_job.on_complete, tuple(pool_job.phases)))

    for node in job.nodes:
        node.flush_pool.observers.append(on_event)
        node.compaction_pool.observers.append(on_event)
    job.run(SETTINGS.duration_s)
    return job, ends


def test_finished_jobs_release_callback_and_phases(finished_run):
    _, ends = finished_run
    kinds = {kind for kind, _, _ in ends}
    assert {"flush", "compaction"} <= kinds
    assert [entry for entry in ends if entry[1] is not None or entry[2]] == []


def test_completed_checkpoints_keep_names_not_snapshots(finished_run):
    job, _ = finished_run
    coordinator = job.coordinator
    stateful = {
        instance.name
        for stage in job.stages
        if stage.spec.stateful
        for instance in stage.instances
        if instance.store is not None
    }
    completed = coordinator.completed
    assert stateful and completed
    for record in completed:
        assert record.snapshots == {}
        assert record.acked == stateful
    newest = completed[-1].checkpoint_id
    for name in stateful:
        checkpoint_id, _, snapshot = coordinator.latest_snapshot(name)
        assert checkpoint_id == newest
        assert snapshot["levels"]


def test_dropped_run_leaves_little_cyclic_garbage():
    # When every finished job kept its flush closure, phases and frozen
    # memtable, and every completed checkpoint its snapshots, this run
    # left 26 246 cyclic objects; releasing them brings it to ~10 600.
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run_scenario("baseline_traffic", settings=SETTINGS)
        del result
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert 0 < garbage < 26_246 // 2

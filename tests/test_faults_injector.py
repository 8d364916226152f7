"""Behavioural tests for the fault injector and invariant checker on a
small two-node, two-stage job."""

import math

import pytest

from repro.config import CheckpointConfig, ClusterConfig
from repro.errors import SimulationError
from repro.faults import (
    FaultPlan,
    FaultSpec,
    InvariantChecker,
    inject_faults,
)
from repro.faults.invariants import INVARIANTS, invariant
from repro.stream.engine import StreamJob
from repro.stream.sources import ConstantSource
from repro.stream.stage import StageSpec
from repro.trace import Tracer

DURATION = 40.0


def small_job(seed=3, faults=None, tracer=None):
    job = StreamJob(
        stages=[
            StageSpec(name="a", parallelism=2, state_entry_bytes=600.0,
                      distinct_keys=3000, selectivity=0.5),
            StageSpec(name="b", parallelism=2, state_entry_bytes=400.0,
                      distinct_keys=1500, selectivity=0.0),
        ],
        source=ConstantSource(1500.0),
        cluster=ClusterConfig(num_nodes=2, cores_per_node=4),
        checkpoint=CheckpointConfig(interval_s=4.0, first_at_s=4.0),
        seed=seed,
        tracer=tracer,
    )
    if faults is not None:
        inject_faults(job, faults)
    return job


def plan_of(*faults) -> FaultPlan:
    return FaultPlan(name="test", faults=tuple(faults))


def test_worker_crash_restores_from_last_checkpoint():
    plan = plan_of(FaultSpec(kind="worker_crash", at_s=14.0, duration_s=2.0,
                             node=0))
    job = small_job(faults=plan)
    result = job.run(DURATION)
    (event,) = job.subsystems["faults"].events
    assert event["kind"] == "worker_crash"
    assert event["start"] == pytest.approx(14.0)
    assert event["end"] == pytest.approx(16.0)
    # the node hosts both stages' instance 0; each store-bearing
    # instance was rewound to the newest completed checkpoint (t=12)
    assert event["restores"]
    for restore in event["restores"]:
        assert restore["restored"]
        assert restore["snapshot_time"] == pytest.approx(12.0)
    assert event["rewound_to_s"] == pytest.approx(12.0)
    # the source kept producing for 14 - 12 = 2 s since the snapshot
    assert event["replayed_messages"] > 0
    assert job.coordinator.restore_events
    assert not job.subsystems["invariants"].violations
    assert math.isfinite(result.tail_summary(start=20.0)["p50"])


def test_worker_crash_aborts_in_flight_checkpoints():
    # crash right after a trigger, before its flushes can all ack
    plan = plan_of(FaultSpec(kind="worker_crash", at_s=12.001,
                             duration_s=2.0, node=0))
    job = small_job(faults=plan)
    job.run(DURATION)
    aborted = job.coordinator.aborted
    assert len(aborted) == 1
    assert aborted[0].abort_reason == "crash:node0"
    assert aborted[0].snapshots == {}
    # late acks to the aborted checkpoint were dropped, and later
    # checkpoints completed normally (the trigger at t=40 may still be
    # in flight when the run ends)
    assert job.coordinator.in_flight <= 1
    assert any(
        record.checkpoint_id > aborted[0].checkpoint_id
        for record in job.coordinator.completed
    )
    assert not job.subsystems["invariants"].violations


def test_flush_stall_pauses_the_pool_for_the_window():
    plan = plan_of(FaultSpec(kind="flush_stall", at_s=10.0, duration_s=6.0,
                             node=0))
    tracer = Tracer()
    job = small_job(faults=plan, tracer=tracer)
    job.run(DURATION)
    assert not job.nodes[0].flush_pool.paused
    pauses = tracer.select(cat="pool", name="pause:node0-flush")
    resumes = tracer.select(cat="pool", name="resume:node0-flush")
    assert [e.ts for e in pauses] == [pytest.approx(10.0)]
    assert [e.ts for e in resumes] == [pytest.approx(16.0)]
    assert not job.subsystems["invariants"].violations


def test_slow_disk_dips_and_restores_device_capacity():
    plan = plan_of(FaultSpec(kind="slow_disk", at_s=10.0, duration_s=5.0,
                             node=1, factor=0.25))
    job = small_job(faults=plan)
    device = job.nodes[1].device
    before = device.capacity
    job.run(DURATION)
    assert device.capacity == pytest.approx(before)
    (event,) = job.subsystems["faults"].events
    assert event["node"] == "node1"
    assert not job.subsystems["invariants"].violations


def test_checkpoint_timeout_aborts_slow_checkpoints():
    # a 1 ms timeout window covering two triggers: they must abort, and
    # the coordinator's timeout reverts to the config value afterwards
    plan = plan_of(FaultSpec(kind="checkpoint_timeout", at_s=11.0,
                             duration_s=6.0, factor=0.001))
    job = small_job(faults=plan)
    job.run(DURATION)
    reasons = {record.abort_reason for record in job.coordinator.aborted}
    assert reasons == {"timeout"}
    assert len(job.coordinator.aborted) >= 1
    assert job.coordinator.timeout_s is None  # restored to the default
    assert job.coordinator.completed  # checkpoints after the window pass
    assert not job.subsystems["invariants"].violations


def test_kafka_backpressure_throttles_and_restores_the_source():
    plan = plan_of(FaultSpec(kind="kafka_backpressure", at_s=10.0,
                             duration_s=8.0, factor=0.4))
    job = small_job(faults=plan)
    job.run(DURATION)
    (event,) = job.subsystems["faults"].events
    assert event["end"] == pytest.approx(18.0)
    # after the window the stage-0 flows see the steady rate again
    stage0 = job.stages[0]
    total_rate = sum(flow.arrival_rate for flow in stage0.flows.values())
    assert total_rate == pytest.approx(job.source.steady_rate())
    assert not job.subsystems["invariants"].violations


def test_fault_windows_and_trace_instants_line_up():
    plan = plan_of(FaultSpec(kind="flush_stall", at_s=10.0, duration_s=2.0,
                             node=0))
    tracer = Tracer()
    job = small_job(faults=plan, tracer=tracer)
    job.run(DURATION)
    assert job.subsystems["faults"].windows == [
        ("flush_stall@node0", pytest.approx(10.0), pytest.approx(12.0))
    ]
    injects = tracer.select(cat="fault", name="fault-inject")
    clears = tracer.select(cat="fault", name="fault-clear")
    assert [e.ts for e in injects] == [pytest.approx(10.0)]
    assert [e.ts for e in clears] == [pytest.approx(12.0)]


def test_summary_carries_fault_report():
    plan = plan_of(FaultSpec(kind="worker_crash", at_s=14.0, duration_s=2.0,
                             node=0))
    job = small_job(faults=plan)
    result = job.run(DURATION)
    summary = result.summary()
    assert summary["faults"]["plan"]["name"] == "test"
    assert len(summary["faults"]["events"]) == 1
    assert summary["faults"]["invariant_violations"] == []
    assert result.fault_events == job.subsystems["faults"].events
    assert result.invariant_violations == []


def test_fault_free_run_has_no_faults_key():
    job = small_job()
    result = job.run(DURATION)
    assert "faults" not in result.summary()
    assert result.fault_events == []
    assert result.invariant_violations == []


def test_double_injection_is_rejected():
    job = small_job(faults=plan_of(
        FaultSpec(kind="flush_stall", at_s=10.0, duration_s=1.0, node=0)
    ))
    with pytest.raises(SimulationError):
        inject_faults(job, "crash")


def test_invariant_checker_rejects_unknown_names():
    with pytest.raises(SimulationError):
        InvariantChecker(names=["no-such-invariant"])


def test_halt_on_violation_aborts_the_simulation():
    @invariant("test-always-fails")
    def always_fails(checker, checked_job):
        yield "synthetic failure", {}

    try:
        job = small_job()
        checker = InvariantChecker(
            names=["test-always-fails"], halt_on_violation=True
        )
        checker.install(job)
        job.run(DURATION)
        assert job.sim.aborted
        assert "test-always-fails" in job.sim.abort_reason
        assert checker.violations
        assert job.sim.now < DURATION
    finally:
        del INVARIANTS["test-always-fails"]


def test_checkpoint_timeout_during_kafka_backpressure():
    """Interaction: a checkpoint-timeout window nested inside a Kafka
    backpressure window.  Both faults must apply and clear independently
    — the source rate is restored, the coordinator's timeout reverts,
    and later checkpoints complete — with exactly-once intact."""
    plan = plan_of(
        FaultSpec(kind="kafka_backpressure", at_s=8.0, duration_s=12.0,
                  factor=0.3),
        FaultSpec(kind="checkpoint_timeout", at_s=10.0, duration_s=6.0,
                  factor=0.001),
    )
    job = small_job(faults=plan)
    job.run(DURATION)
    kinds = sorted(e["kind"] for e in job.subsystems["faults"].events)
    assert kinds == ["checkpoint_timeout", "kafka_backpressure"]
    # checkpoints triggered while throttled *and* timing out aborted...
    assert {r.abort_reason for r in job.coordinator.aborted} == {"timeout"}
    # ...but both windows unwound cleanly: timeout back to the config
    # default, source back to the steady rate, later checkpoints pass
    assert job.coordinator.timeout_s is None
    stage0 = job.stages[0]
    total_rate = sum(flow.arrival_rate for flow in stage0.flows.values())
    assert total_rate == pytest.approx(job.source.steady_rate())
    assert any(
        record.completed_at > 20.0 for record in job.coordinator.completed
    )
    assert not job.subsystems["invariants"].violations


def test_crash_inside_flush_stall_window():
    """Interaction: a worker crashes while its flush pool is stalled.
    The crash restarts the pool (clearing the stall's pause early); the
    stall's late resume must be absorbed, not unbalance the pool, and
    recovery must still rewind to the last completed checkpoint."""
    plan = plan_of(
        FaultSpec(kind="flush_stall", at_s=13.0, duration_s=6.0, node=0),
        FaultSpec(kind="worker_crash", at_s=15.0, duration_s=1.0, node=0),
    )
    job = small_job(faults=plan)
    job.run(DURATION)
    crash = next(
        e for e in job.subsystems["faults"].events if e["kind"] == "worker_crash"
    )
    assert crash["restores"]
    assert crash["rewound_to_s"] == pytest.approx(12.0)
    # after both windows the pool is running: neither the stall's pause
    # nor the crash's pause survived, and the stall's resume at t=19
    # (after the restart) was forgiven rather than double-resumed
    pool = job.nodes[0].flush_pool
    assert not pool.paused
    assert not job.nodes[0].crashed
    assert not job.subsystems["invariants"].violations


def test_identical_seed_and_plan_reproduce_event_for_event():
    plan = plan_of(
        FaultSpec(kind="worker_crash", at_s=13.0, duration_s=1.5, node=0),
        FaultSpec(kind="slow_disk", at_s=20.0, duration_s=2.0, node=1,
                  factor=0.5),
    )
    events = []
    tails = []
    for _ in range(2):
        job = small_job(seed=9, faults=plan)
        result = job.run(DURATION)
        events.append(job.subsystems["faults"].events)
        tails.append(result.tail_summary(start=20.0))
    assert events[0] == events[1]
    assert tails[0] == tails[1]

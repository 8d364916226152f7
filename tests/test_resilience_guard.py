"""Behavioural tests for the overload-protection loop: token-bucket
shedding, SLO-guard trip/recovery with its actuators, watchdog
supervision, and upload retry/circuit-breaking — on a small job."""

import pytest

from repro.config import CheckpointConfig, ClusterConfig
from repro.faults import FaultPlan, FaultSpec, inject_faults
from repro.resilience import ResilienceConfig, install_resilience
from repro.resilience.shedding import LoadShedder
from repro.sim import Simulator
from repro.stream.engine import StreamJob
from repro.stream.sources import ConstantSource
from repro.stream.stage import StageSpec
from repro.trace import Tracer

DURATION = 60.0


def small_job(seed=3, faults=None, tracer=None, resilience=None):
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
    if resilience is not None:
        install_resilience(job, resilience)
    return job


def plan_of(*faults) -> FaultPlan:
    return FaultPlan(name="test", faults=tuple(faults))


# ----------------------------------------------------------------------
# LoadShedder (unit)
# ----------------------------------------------------------------------


def test_shedder_disengaged_is_pass_through():
    sim = Simulator(seed=1)
    shedder = LoadShedder(sim, limit_rate=100.0, burst_s=1.0)
    applied = []
    shedder.apply_rate = applied.append
    assert shedder.offer(500.0) == 500.0
    sim.run_for(5.0)
    shedder.finalize(sim.now)
    assert shedder.shed_messages == 0.0
    assert shedder.windows == []
    assert applied == []  # never touched the rate


def test_shedder_burst_then_clamp_counts_exact_excess():
    sim = Simulator(seed=1)
    shedder = LoadShedder(sim, limit_rate=100.0, burst_s=1.0)  # 100-msg bucket
    applied = []
    shedder.apply_rate = applied.append
    assert shedder.offer(200.0) == 200.0
    shedder.engage()
    # excess is 100/s against a 100-msg bucket: exhaustion after 1 s,
    # then the admitted rate clamps to the limit
    sim.run_for(3.0)
    assert applied == [pytest.approx(100.0)]
    shedder.finalize(sim.now)
    # shed for 2 s at 100/s excess
    assert shedder.shed_messages == pytest.approx(200.0)
    sim2_now = sim.now
    shedder.disengage()
    assert shedder.windows == [(0.0, pytest.approx(sim2_now))]
    assert applied[-1] == pytest.approx(200.0)  # full offered rate again
    assert shedder.engagements == 1


def test_shedder_under_limit_offers_pass_untouched():
    sim = Simulator(seed=1)
    shedder = LoadShedder(sim, limit_rate=100.0, burst_s=0.0)
    applied = []
    shedder.apply_rate = applied.append
    shedder.offer(80.0)
    shedder.engage()
    sim.run_for(2.0)
    shedder.finalize(sim.now)
    assert shedder.shed_messages == 0.0
    assert shedder.admitted == 80.0


# ----------------------------------------------------------------------
# SLO guard: trip, actuators, recovery (integration)
# ----------------------------------------------------------------------


def overload_config(**overrides):
    base = dict(latency_slo_s=1.5, trip_samples=3, recovery_samples=8,
                recovery_factor=0.5)
    base.update(overrides)
    return ResilienceConfig(**base)


def run_overloaded_job(tracer=None, config=None):
    """Drive the source far above capacity for a few seconds mid-run."""
    job = small_job(tracer=tracer, resilience=config or overload_config())
    sim = job.sim
    sim.schedule(10.0, lambda: job.set_source_rate(30000.0))
    sim.schedule(16.0, lambda: job.set_source_rate(1500.0))
    result = job.run(DURATION)
    return job, result


def test_guard_trips_sheds_and_recovers():
    tracer = Tracer()
    job, _result = run_overloaded_job(tracer=tracer)
    guard = job.subsystems["resilience"].guard
    assert guard.trips == 1
    assert guard.mode == "normal"  # recovered before the end
    (window,) = guard.degraded_windows
    assert 10.0 < window[1] < window[2] < DURATION
    shedder = job.subsystems["resilience"].shedder
    assert shedder.shed_messages > 0
    assert shedder.engagements == 1
    trip = tracer.select(cat="resilience", name="slo-trip")
    recover = tracer.select(cat="resilience", name="slo-recover")
    engage = tracer.select(cat="resilience", name="shed-engage")
    disengage = tracer.select(cat="resilience", name="shed-disengage")
    assert len(trip) == len(recover) == len(engage) == len(disengage) == 1
    assert trip[0].ts <= engage[0].ts
    assert recover[0].ts > trip[0].ts


def test_guard_actuators_engage_and_restore():
    job, _result = run_overloaded_job()
    config = job.subsystems["resilience"].config
    # after recovery everything is back to normal
    for node in job.nodes:
        assert node.compaction_pool.size > config.compaction_threads_degraded
    assert job.coordinator.interval_scale == 1.0
    # the trip actually actuated: the guard log shows both actions
    actions = [a["action"] for a in job.subsystems["resilience"].guard.actions]
    assert actions == ["slo-trip", "slo-recover"]
    # while degraded the backlog was bounded by shedding
    assert job.subsystems["resilience"].guard.max_queue_messages < 300_000


def test_guard_is_inert_when_healthy():
    baseline = small_job(seed=11).run(DURATION).tail_summary(start=10.0)
    guarded_job = small_job(seed=11, resilience=ResilienceConfig())
    guarded = guarded_job.run(DURATION).tail_summary(start=10.0)
    assert guarded == baseline  # byte-identical trajectory
    guard = guarded_job.subsystems["resilience"].guard
    assert guard.trips == 0
    assert guard.samples_taken > 200
    assert guarded_job.subsystems["resilience"].shedder.shed_messages == 0.0


# ----------------------------------------------------------------------
# watchdog (integration)
# ----------------------------------------------------------------------


def test_watchdog_restarts_stuck_flush_pool():
    plan = plan_of(FaultSpec(kind="flush_stall", at_s=10.0, duration_s=12.0,
                             node=0))
    tracer = Tracer()
    config = ResilienceConfig(watchdog_stuck_s=3.0, watchdog_cooldown_s=100.0)
    job = small_job(faults=plan, tracer=tracer, resilience=config)
    job.run(DURATION)
    pool = job.nodes[0].flush_pool
    assert pool.restarts  # the watchdog force-restarted it mid-stall
    assert 13.0 <= pool.restarts[0] <= 16.0
    assert not pool.paused  # the fault's late resume was forgiven
    restarts = job.subsystems["resilience"].watchdog.pool_restarts
    assert restarts and restarts[0]["target"] == "node0-flush"
    assert restarts[0]["cleared_pauses"] == 1
    instants = tracer.select(cat="resilience", name="watchdog-pool-restart")
    assert [e.ts for e in instants] == [pytest.approx(pool.restarts[0])]
    assert not job.subsystems["invariants"].violations


def test_watchdog_restarts_hung_worker_through_restore_path():
    """A flush submitted into a stalled pool leaves its instance blocked
    (a hung worker).  With the pool check effectively disabled, the
    worker check must restart the instance through the restore path and
    the zombie flush's eventual completion must be discarded."""
    plan = plan_of(FaultSpec(kind="flush_stall", at_s=10.0, duration_s=20.0,
                             node=0))
    tracer = Tracer()
    config = ResilienceConfig(watchdog_stuck_s=1000.0,
                              watchdog_worker_stuck_s=4.0)
    job = small_job(faults=plan, tracer=tracer, resilience=config)
    # probe after the stall clears (t=30) but before the run-final
    # checkpoint leaves fresh flushes legitimately in flight
    recovered = {}
    job.sim.schedule(35.0, lambda: recovered.update(
        (inst.name, inst.blocked)
        for inst in job.nodes[0].instances
    ))
    result = job.run(DURATION)
    actions = job.subsystems["resilience"].watchdog.worker_restarts
    assert actions
    first = actions[0]
    restarted = next(
        inst for node in job.nodes for inst in node.instances
        if inst.name == first["target"]
    )
    assert restarted.node.name == "node0"
    assert restarted.restart_epoch >= 1
    assert first["stuck_s"] >= 4.0
    assert first["restored_checkpoint"] >= 1  # rewound to a real snapshot
    # the zombie flushes drained once the stall lifted; nobody is hung
    assert recovered and not any(recovered.values())
    instants = tracer.select(cat="resilience", name="watchdog-worker-restart")
    assert [e.ts for e in instants][0] == pytest.approx(first["time"])
    assert result.invariant_violations == []


# ----------------------------------------------------------------------
# resilient uploads (integration)
# ----------------------------------------------------------------------


def test_upload_deadline_misses_retry_then_trip_breaker():
    tracer = Tracer()
    config = ResilienceConfig(upload_deadline_s=1e-6, retry_attempts=2,
                              retry_base_delay_s=0.05, breaker_failures=3,
                              breaker_reset_s=1000.0)
    job = small_job(tracer=tracer, resilience=config)
    result = job.run(DURATION)
    uploads = job.subsystems["resilience"].uploader.report()
    assert uploads["timeouts"] >= 3
    assert uploads["retries"] >= 1
    assert uploads["exhausted"]  # some checkpoint spent every attempt
    assert uploads["breaker_state"] == "open"
    assert uploads["shed"]  # later uploads rejected outright
    assert tracer.select(cat="resilience", name="upload-timeout")
    assert tracer.select(cat="resilience", name="upload-retry")
    assert tracer.select(cat="resilience", name="retry-exhausted")
    assert tracer.select(cat="resilience", name="breaker-open")
    assert tracer.select(cat="resilience", name="upload-shed")
    # shedding uploads must not corrupt the run itself
    assert result.invariant_violations == []


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------


def test_result_summary_carries_resilience_digest():
    job, result = run_overloaded_job()
    summary = result.summary()
    digest = summary["resilience"]
    assert digest["trips"] == 1
    assert digest["mode"] == "normal"
    assert digest["shed"]["messages"] > 0
    assert digest["config"]["latency_slo_s"] == 1.5
    windows = result.windows()["resilience"]  # degraded + load-shed spans
    labels = {label for label, _s, _e in windows}
    assert labels == {"degraded", "load-shed"}


def test_unguarded_summary_has_no_resilience_key():
    result = small_job().run(20.0)
    assert "resilience" not in result.summary()
    assert result.reports() == {}
    assert result.windows() == {}

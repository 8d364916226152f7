"""Behavioural tests for the overload-protection loop: token-bucket
shedding and SLO-guard trip/recovery with its actuators — on a small
job — plus the layer's config and error hierarchy."""

import pytest

from repro.config import CheckpointConfig, ClusterConfig
from repro.errors import (
    ConfigurationError,
    OverloadError,
    ReproError,
    ResilienceError,
)
from repro.resilience import ResilienceConfig, install_resilience
from repro.resilience.shedding import LoadShedder
from repro.sim import Simulator
from repro.stream.engine import StreamJob
from repro.stream.sources import ConstantSource
from repro.stream.stage import StageSpec
from repro.trace import Tracer

DURATION = 60.0


def small_job(seed=3, tracer=None, resilience=None):
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
    if resilience is not None:
        install_resilience(job, resilience)
    return job


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


def run_overloaded_job(tracer=None):
    """Drive the source far above capacity for a few seconds mid-run."""
    job = small_job(tracer=tracer, resilience=ResilienceConfig())
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
# summaries
# ----------------------------------------------------------------------


def test_result_summary_carries_resilience_digest():
    job, result = run_overloaded_job()
    summary = result.summary()
    digest = summary["resilience"]
    assert digest["trips"] == 1
    assert digest["mode"] == "normal"
    assert digest["shed"]["messages"] > 0
    assert digest["config"] == ResilienceConfig().to_dict()
    windows = result.windows()["resilience"]  # degraded + load-shed spans
    labels = {label for label, _s, _e in windows}
    assert labels == {"degraded", "load-shed"}


def test_unguarded_summary_has_no_resilience_key():
    result = small_job().run(20.0)
    assert "resilience" not in result.summary()
    assert result.reports() == {}
    assert result.windows() == {}


# ----------------------------------------------------------------------
# ResilienceConfig and the error hierarchy
# ----------------------------------------------------------------------


def test_resilience_errors_are_repro_errors():
    assert issubclass(OverloadError, ResilienceError)
    assert issubclass(OverloadError, ReproError)
    assert not issubclass(ConfigurationError, ResilienceError)


def test_config_roundtrips_through_serialize_registry():
    config = ResilienceConfig(compaction_threads_degraded=2,
                              checkpoint_stretch=3.0)
    assert ResilienceConfig.from_dict(config.to_dict()) == config


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ResilienceConfig(checkpoint_stretch=0.0)
    with pytest.raises(ConfigurationError):
        ResilienceConfig(compaction_threads_degraded=0)


def test_config_from_dict_drops_knobs_it_no_longer_has():
    """Specs stored while the config still carried the upload-retry,
    breaker and watchdog knobs, the on/off switch, and the guard's and
    shedder's constants load as the same guard and shedder."""
    stored = dict(ResilienceConfig(checkpoint_stretch=3.0).to_dict(),
                  retry_attempts=7, upload_deadline_s=12.0,
                  breaker_failures=5, watchdog_poll_s=1.0,
                  cpu_saturation=0.97, queue_slo_messages=0.0,
                  enabled=True, sample_interval_s=0.5, latency_window_s=10.0,
                  latency_slo_s=2.0, trip_samples=2, recovery_samples=4,
                  recovery_factor=0.25, shed_rate_factor=0.5,
                  shed_burst_s=2.0)
    assert ResilienceConfig.from_dict(stored) == ResilienceConfig(
        checkpoint_stretch=3.0)
    assert len(ResilienceConfig().to_dict()) == 2

"""Unit tests for the resilience primitives: retry, breaker, config,
and the error hierarchy."""

import random

import pytest

from repro.errors import (
    ConfigurationError,
    OverloadError,
    ReproError,
    ResilienceError,
)
from repro.resilience import (
    CircuitBreaker,
    ResilienceConfig,
    RetryPolicy,
)


# ----------------------------------------------------------------------
# error hierarchy
# ----------------------------------------------------------------------


def test_resilience_errors_are_repro_errors():
    assert issubclass(OverloadError, ResilienceError)
    assert issubclass(OverloadError, ReproError)
    assert not issubclass(ConfigurationError, ResilienceError)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


def test_retry_delays_grow_and_cap():
    policy = RetryPolicy(max_attempts=6, base_delay_s=0.25, multiplier=2.0,
                         max_delay_s=1.0, jitter=0.0)
    assert [policy.delay_s(n) for n in (1, 2, 3, 4, 5)] == [
        0.25, 0.5, 1.0, 1.0, 1.0
    ]


def test_retry_jitter_is_bounded_and_seeded():
    policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.2)
    delays = [policy.delay_s(1, random.Random(7)) for _ in range(5)]
    assert all(0.8 <= d <= 1.2 for d in delays)
    # same seed, same delay: jitter draws only from the supplied rng
    assert len(set(delays)) == 1
    assert policy.delay_s(1) == 1.0  # no rng -> deterministic midpoint


def test_retry_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy().delay_s(0)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------


def test_breaker_trips_after_consecutive_failures():
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0)
    for t in (1.0, 2.0):
        breaker.record_failure(t)
        assert breaker.state == "closed"
    # a success in between resets the consecutive count
    breaker.record_success(2.5)
    breaker.record_failure(3.0)
    breaker.record_failure(4.0)
    assert breaker.state == "closed"
    breaker.record_failure(5.0)
    assert breaker.state == "open"
    assert breaker.trips == 1
    assert not breaker.allow(6.0)
    assert breaker.rejected == 1


def test_breaker_half_open_probe_closes_on_success():
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0)
    breaker.record_failure(0.0)
    assert breaker.state == "open"
    assert breaker.allow(10.0)  # reset timeout elapsed -> half-open probe
    assert breaker.state == "half-open"
    assert not breaker.allow(10.1)  # only one probe admitted
    breaker.record_success(10.5)
    assert breaker.state == "closed"
    assert breaker.allow(10.6)


def test_breaker_half_open_probe_reopens_on_failure():
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0)
    breaker.record_failure(0.0)
    assert breaker.allow(10.0)
    breaker.record_failure(10.5)
    assert breaker.state == "open"
    assert breaker.trips == 2
    assert not breaker.allow(15.0)  # reset clock restarted at the re-trip
    assert [s for _t, s in breaker.transitions] == [
        "open", "half-open", "open"
    ]


def test_breaker_validation():
    with pytest.raises(ConfigurationError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ConfigurationError):
        CircuitBreaker(reset_timeout_s=-1.0)


# ----------------------------------------------------------------------
# ResilienceConfig
# ----------------------------------------------------------------------


def test_config_roundtrips_through_serialize_registry():
    config = ResilienceConfig(latency_slo_s=2.0, shed_rate_factor=0.5)
    assert ResilienceConfig.from_dict(config.to_dict()) == config
    policy = RetryPolicy(max_attempts=5)
    assert RetryPolicy.from_dict(policy.to_dict()) == policy


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ResilienceConfig(latency_slo_s=0.0)
    with pytest.raises(ConfigurationError):
        ResilienceConfig(shed_rate_factor=1.5)
    with pytest.raises(ConfigurationError):
        ResilienceConfig(recovery_factor=0.0)
    with pytest.raises(ConfigurationError):
        ResilienceConfig(compaction_threads_degraded=0)


def test_config_from_dict_drops_knobs_it_no_longer_has():
    """Specs stored while the config still carried the upload-retry,
    breaker and watchdog knobs load as the same guard and shedder."""
    stored = dict(ResilienceConfig(latency_slo_s=2.0).to_dict(),
                  retry_attempts=7, upload_deadline_s=12.0,
                  breaker_failures=5, watchdog_poll_s=1.0,
                  cpu_saturation=0.97, queue_slo_messages=0.0)
    assert ResilienceConfig.from_dict(stored) == ResilienceConfig(
        latency_slo_s=2.0)
    assert len(ResilienceConfig().to_dict()) == 11

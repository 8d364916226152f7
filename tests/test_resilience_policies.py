"""Unit tests for the resilience config and the error hierarchy."""

import pytest

from repro.errors import (
    ConfigurationError,
    OverloadError,
    ReproError,
    ResilienceError,
)
from repro.resilience import ResilienceConfig


# ----------------------------------------------------------------------
# error hierarchy
# ----------------------------------------------------------------------


def test_resilience_errors_are_repro_errors():
    assert issubclass(OverloadError, ResilienceError)
    assert issubclass(OverloadError, ReproError)
    assert not issubclass(ConfigurationError, ResilienceError)


# ----------------------------------------------------------------------
# ResilienceConfig
# ----------------------------------------------------------------------


def test_config_roundtrips_through_serialize_registry():
    config = ResilienceConfig(latency_slo_s=2.0, shed_rate_factor=0.5)
    assert ResilienceConfig.from_dict(config.to_dict()) == config


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

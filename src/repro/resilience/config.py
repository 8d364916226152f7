"""Configuration of the closed-loop overload-protection layer.

One frozen :class:`ResilienceConfig` describes everything the layer
does to a run: how the SLO guard samples and trips, and what the
degraded mode actuates (admission shedding, compaction throttling,
checkpoint stretching).  It is plain data — it pickles through the
parallel executor, hashes into the result-cache key, and round-trips
through ``to_dict``/``from_dict`` (which drops unknown keys, so specs
stored with since-removed knobs still load) — so a guarded run is
exactly as reproducible as an unguarded one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import ConfigurationError

__all__ = ["ResilienceConfig", "DEFAULT_RESILIENCE"]


@dataclass(frozen=True, kw_only=True)
class ResilienceConfig:
    """Knobs of the SLO guard and its degraded-mode actuators."""

    enabled: bool = True

    # --- SLO guard sampling & hysteresis ------------------------------
    #: Seconds between guard samples (queue depths, CPU, est. latency).
    sample_interval_s: float = 0.25
    #: Width of the sliding window the p99 latency estimate is taken
    #: over.
    latency_window_s: float = 5.0
    #: The latency SLO: windowed-p99 estimated end-to-end latency above
    #: this marks a sample as overloaded.
    latency_slo_s: float = 1.5
    #: Consecutive overloaded samples before tripping into degraded mode.
    trip_samples: int = 3
    #: Consecutive healthy samples (below ``recovery_factor`` × SLO)
    #: before recovering to normal mode.
    recovery_samples: int = 8
    #: Hysteresis: recovery requires the windowed p99 to fall below
    #: ``recovery_factor * latency_slo_s``, not merely below the SLO.
    recovery_factor: float = 0.5

    # --- degraded-mode actuators --------------------------------------
    #: Token-bucket fill rate as a fraction of the source's steady rate.
    shed_rate_factor: float = 0.6
    #: Bucket capacity in seconds of steady rate (burst admitted before
    #: shedding starts).
    shed_burst_s: float = 1.0
    #: Compaction pool size while degraded (LSM maintenance throttling).
    #: A 4x throttle of the default 16-thread pool: enough to free CPU
    #: for draining backlog, but not so starved that L0 crosses the
    #: slowdown trigger and write stalls replace the latency we saved.
    compaction_threads_degraded: int = 4
    #: Checkpoint-interval multiplier while degraded (> 1 stretches).
    checkpoint_stretch: float = 2.0

    def __post_init__(self) -> None:
        positive = (
            ("sample_interval_s", self.sample_interval_s),
            ("latency_window_s", self.latency_window_s),
            ("latency_slo_s", self.latency_slo_s),
            ("checkpoint_stretch", self.checkpoint_stretch),
        )
        for name, value in positive:
            if value <= 0:
                raise ConfigurationError(f"resilience: {name} must be > 0")
        if not 0.0 < self.shed_rate_factor <= 1.0:
            raise ConfigurationError(
                "resilience: shed_rate_factor must be in (0, 1]"
            )
        if self.shed_burst_s < 0:
            raise ConfigurationError("resilience: shed_burst_s must be >= 0")
        if not 0.0 < self.recovery_factor <= 1.0:
            raise ConfigurationError(
                "resilience: recovery_factor must be in (0, 1]"
            )
        if self.trip_samples < 1 or self.recovery_samples < 1:
            raise ConfigurationError(
                "resilience: trip_samples/recovery_samples must be >= 1"
            )
        if self.compaction_threads_degraded < 1:
            raise ConfigurationError(
                "resilience: compaction_threads_degraded must be >= 1"
            )

    def to_dict(self) -> dict:
        """Plain-data form (cache keys, logs)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> ResilienceConfig:
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})


DEFAULT_RESILIENCE = ResilienceConfig()

"""Configuration of the closed-loop overload-protection layer.

One frozen :class:`ResilienceConfig` holds the degraded mode's two
settable actuators: the throttled compaction pool size and the
checkpoint-interval stretch.  The guard's sampling and hysteresis
constants live in :mod:`repro.resilience.guard`, the shedder's in
:mod:`repro.resilience.shedding`.  The config is plain data — it
pickles through the parallel executor, hashes into the result-cache
key, and round-trips through ``to_dict``/``from_dict`` (which drops
unknown keys, so specs stored with since-removed knobs still load) — so
a guarded run is exactly as reproducible as an unguarded one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import ConfigurationError

__all__ = ["ResilienceConfig", "DEFAULT_RESILIENCE"]


@dataclass(frozen=True, kw_only=True)
class ResilienceConfig:
    """The SLO guard's degraded-mode actuators."""

    #: Compaction pool size while degraded (LSM maintenance throttling).
    #: A 4x throttle of the default 16-thread pool: enough to free CPU
    #: for draining backlog, but not so starved that L0 crosses the
    #: slowdown trigger and write stalls replace the latency we saved.
    compaction_threads_degraded: int = 4
    #: Checkpoint-interval multiplier while degraded (> 1 stretches).
    checkpoint_stretch: float = 2.0

    def __post_init__(self) -> None:
        if self.checkpoint_stretch <= 0:
            raise ConfigurationError("resilience: checkpoint_stretch must be > 0")
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

"""Closed-loop overload protection for simulated stream jobs.

The package wires two cooperating pieces onto a built
:class:`~repro.stream.engine.StreamJob`:

* :class:`~repro.resilience.guard.SLOGuard` — samples queues, CPU and
  estimated tail latency; trips into degraded mode with hysteresis,
  where it throttles compaction and stretches the checkpoint interval;
* :class:`~repro.resilience.shedding.LoadShedder` — token-bucket
  admission control over the source rate while degraded.

Entry points: call :func:`install_resilience` on a built job, or set
``resilience=`` on a :class:`~repro.scenarios.spec.ScenarioSpec` /
:class:`~repro.experiments.parallel.RunSpec`.  The chaos-soak harness
lives in :mod:`repro.resilience.soak`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..stream.engine import Subsystem
from .config import DEFAULT_RESILIENCE, ResilienceConfig
from .guard import SLOGuard
from .shedding import SHED_RATE_FACTOR, LoadShedder

__all__ = [
    "ResilienceConfig",
    "DEFAULT_RESILIENCE",
    "SLOGuard",
    "LoadShedder",
    "ResilienceController",
    "install_resilience",
    "load_resilience_config",
]


def load_resilience_config(
    value: Union[ResilienceConfig, dict, bool, None],
) -> Optional[ResilienceConfig]:
    """Coerce *value* into a :class:`ResilienceConfig` (or ``None``).

    Accepts an existing config, its ``to_dict`` form, ``True`` (the
    defaults) or ``None``/``False`` (disabled).
    """
    if value is None or value is False:
        return None
    if value is True:
        return DEFAULT_RESILIENCE
    if isinstance(value, ResilienceConfig):
        return value
    if isinstance(value, dict):
        return ResilienceConfig.from_dict(value)
    raise ConfigurationError(
        f"cannot interpret {value!r} as a resilience config"
    )


class ResilienceController(Subsystem):
    """Owns every resilience component attached to one job."""

    channel = "resilience"

    def __init__(self, job, config: ResilienceConfig) -> None:
        self.job = job
        self.config = config
        limit = SHED_RATE_FACTOR * job.source.steady_rate()
        self.shedder = LoadShedder(job.sim, limit)
        self.shedder.apply_rate = job._apply_source_rate
        self.guard = SLOGuard(job, config, self.shedder)

    def install(self) -> ResilienceController:
        self.job.attach("resilience", self)
        self.job.admission = self.shedder
        self.guard.install()
        return self

    def finalize(self, now: float) -> None:
        self.guard.finalize(now)
        self.shedder.finalize(now)

    @property
    def windows(self) -> List[Tuple[str, float, float]]:
        """``(label, start, end)`` resilience-action windows for spike
        attribution (degraded-mode spans and shedding spans)."""
        windows = [
            ("degraded", start, end)
            for _mode, start, end in self.guard.degraded_windows
        ]
        windows.extend(
            ("load-shed", start, end) for start, end in self.shedder.windows
        )
        return sorted(windows, key=lambda w: w[1])

    def report(self) -> dict:
        """The JSON-serializable digest carried on run summaries."""
        return {
            "config": self.config.to_dict(),
            "mode": self.guard.mode,
            "trips": self.guard.trips,
            "mode_windows": [list(w) for w in self.guard.mode_windows],
            "guard_actions": list(self.guard.actions),
            "max_queue_messages": self.guard.max_queue_messages,
            "shed": {
                "messages": self.shedder.shed_messages,
                "engagements": self.shedder.engagements,
                "windows": [list(w) for w in self.shedder.windows],
            },
        }


def install_resilience(job, config=True) -> Optional[ResilienceController]:
    """Attach the resilience layer to a built (un-run) job.

    Returns the controller (filed under ``job.subsystems["resilience"]``),
    or ``None`` when *config* disables the layer.
    """
    resolved = load_resilience_config(config)
    if resolved is None:
        return None
    return ResilienceController(job, resolved).install()

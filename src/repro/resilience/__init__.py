"""Closed-loop overload protection for simulated stream jobs.

The package wires four cooperating pieces onto a built
:class:`~repro.stream.engine.StreamJob`:

* :class:`~repro.resilience.guard.SLOGuard` — samples queues, CPU and
  estimated tail latency; trips into degraded mode with hysteresis;
* :class:`~repro.resilience.shedding.LoadShedder` — token-bucket
  admission control over the source rate while degraded;
* :class:`~repro.resilience.uploads.ResilientUploader` — retry,
  deadline and circuit breaking around checkpoint snapshot uploads
  (and :class:`~repro.resilience.uploads.ResilientKafkaCommitter` for
  offset commits);
* :class:`~repro.resilience.watchdog.Watchdog` — restarts stuck pools
  and hung workers through the checkpoint restore path.

Entry points: call :func:`install_resilience` on a built job, or set
``resilience=`` on a :class:`~repro.scenarios.spec.ScenarioSpec` /
:class:`~repro.experiments.parallel.RunSpec`.  The chaos-soak harness
lives in :mod:`repro.resilience.soak`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..stream.engine import Subsystem
from .config import DEFAULT_RESILIENCE, ResilienceConfig
from .guard import OverloadController, SLOGuard
from .policies import CircuitBreaker, Deadline, RetryPolicy
from .shedding import LoadShedder
from .uploads import ResilientKafkaCommitter, ResilientUploader
from .watchdog import Watchdog

__all__ = [
    "ResilienceConfig",
    "DEFAULT_RESILIENCE",
    "SLOGuard",
    "OverloadController",
    "LoadShedder",
    "RetryPolicy",
    "Deadline",
    "CircuitBreaker",
    "ResilientUploader",
    "ResilientKafkaCommitter",
    "Watchdog",
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
    raise TypeError(f"cannot interpret {value!r} as a resilience config")


class ResilienceController(Subsystem):
    """Owns every resilience component attached to one job."""

    channel = "resilience"

    def __init__(self, job, config: ResilienceConfig) -> None:
        self.job = job
        self.config = config
        limit = config.shed_rate_factor * job.source.steady_rate()
        self.shedder = LoadShedder(job.sim, limit, burst_s=config.shed_burst_s)
        self.shedder.apply_rate = job._apply_source_rate
        self.guard = SLOGuard(job, config, self.shedder)
        self.watchdog = Watchdog(job, config)
        self.uploader = ResilientUploader(
            job.sim,
            job.hdfs,
            config.retry_policy(),
            config.circuit_breaker("hdfs-upload"),
            config.upload_deadline_s,
        )

    def install(self) -> ResilienceController:
        self.job.attach("resilience", self)
        self.job.admission = self.shedder
        self.job.coordinator.uploader = self.uploader.upload
        self.guard.install()
        self.watchdog.install()
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
            "watchdog": {
                "pool_restarts": list(self.watchdog.pool_restarts),
                "worker_restarts": list(self.watchdog.worker_restarts),
            },
            "uploads": self.uploader.report(),
        }


def install_resilience(job, config=True) -> Optional[ResilienceController]:
    """Attach the resilience layer to a built (un-run) job.

    Returns the controller (filed under ``job.subsystems["resilience"]``),
    or ``None`` when *config* disables the layer.
    """
    resolved = load_resilience_config(config)
    if resolved is None or not resolved.enabled:
        return None
    return ResilienceController(job, resolved).install()

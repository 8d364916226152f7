"""The declarative scenario description.

A :class:`ScenarioSpec` composes everything that defines one experiment
*situation* — the workload (arrival process, key distribution), the
app/topology, the fault schedule, and the resilience configuration —
into a single frozen, serializable object.  It is plain data end to
end: it round-trips through its own ``to_dict``/``from_dict``, pickles
through the parallel executor, and hashes canonically into the
result-cache key, so a scenario run is exactly as reproducible and
cacheable as the hand-wired experiments it replaces.

Measurement conventions (duration, warmup, seed) deliberately stay
*outside* the scenario, in
:class:`~repro.experiments.runner.ExperimentSettings`: the same
scenario is run at many durations and seeds, and the library entries
stay seed-free.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple, Union

from ..apps import APPS
from ..cluster.spec import ClusterSpec
from ..core.mitigation import MitigationPlan
from ..errors import ConfigurationError
from ..faults.plan import MEMBERSHIP_KINDS, FaultPlan
from ..resilience import load_resilience_config
from ..resilience.config import ResilienceConfig
from ..storage.backend import profile_by_name
from ..stream.sources import (
    ClosedLoopSource,
    ConstantSource,
    DiurnalSource,
    PiecewiseSource,
)

__all__ = ["ARRIVALS", "WorkloadSpec", "ScenarioSpec"]

#: Supported arrival processes.
ARRIVALS = ("constant", "piecewise", "diurnal", "closed_loop")


def _layer(name: str, value, cls):
    """*value* as a *cls* layer spec: ``None``, an instance, or its
    dict form; anything else is a :class:`ConfigurationError`."""
    if value is None or isinstance(value, cls):
        return value
    if isinstance(value, dict):
        return cls.from_dict(value)
    raise ConfigurationError(
        f"{name} must be a {cls.__name__}, its dict form or None, "
        f"got {value!r}"
    )


def _tupled(entries) -> tuple:
    """Deep list→tuple coercion (JSON round-trips turn tuples to lists)."""
    return tuple(tuple(entry) for entry in entries)


@dataclass(frozen=True, kw_only=True)
class WorkloadSpec:
    """The arrival process and key distribution of a scenario.

    Open-loop kinds (``constant``, ``piecewise``, ``diurnal``) push a
    rate regardless of system state; ``closed_loop`` models a fixed
    client population whose offered rate self-limits with latency.
    ``skew`` is the key-distribution axis: each ``(at_s, hot_fraction,
    hot_node)`` entry re-weights the ingest so *hot_fraction* of the
    source traffic lands on one node from that time on — a hot-key
    shift, not a rate change.
    """

    arrival: str = "constant"
    #: Base (constant) or peak (diurnal) message rate, msgs/s.
    rate: float = 60000.0
    #: ``piecewise``: ``((at_s, rate), ...)`` ascending.
    schedule: Tuple[Tuple[float, float], ...] = ()
    #: ``diurnal``: oscillation period and trough depth.
    period_s: float = 240.0
    trough_factor: float = 0.3
    #: ``diurnal``: flash crowds ``((at_s, duration_s, multiplier), ...)``.
    bursts: Tuple[Tuple[float, float, float], ...] = ()
    steps_per_period: int = 24
    #: ``closed_loop``: client population and per-client timing.
    clients: int = 0
    think_time_s: float = 1.0
    base_service_s: float = 0.002
    control_interval_s: float = 1.0
    #: Hot-key schedule ``((at_s, hot_fraction, hot_node), ...)``.
    skew: Tuple[Tuple[float, float, int], ...] = ()

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVALS:
            raise ConfigurationError(
                f"unknown arrival {self.arrival!r}; expected one of {ARRIVALS}"
            )
        object.__setattr__(self, "schedule", _tupled(self.schedule))
        object.__setattr__(self, "bursts", _tupled(self.bursts))
        object.__setattr__(self, "skew", _tupled(self.skew))
        if self.rate < 0:
            raise ConfigurationError("workload rate must be >= 0")
        if self.arrival == "piecewise" and not self.schedule:
            raise ConfigurationError("piecewise arrival needs a schedule")
        if self.arrival == "closed_loop" and self.clients < 1:
            raise ConfigurationError("closed_loop arrival needs clients >= 1")
        for entry in self.skew:
            if len(entry) != 3:
                raise ConfigurationError(
                    "skew entries are (at_s, hot_fraction, hot_node)"
                )
            at_s, hot_fraction, hot_node = entry
            if at_s < 0:
                raise ConfigurationError("skew at_s must be >= 0")
            if not 0.0 < hot_fraction <= 1.0:
                raise ConfigurationError("skew hot_fraction must be in (0, 1]")
            if int(hot_node) < 0:
                raise ConfigurationError("skew hot_node must be >= 0")

    def steady_rate(self) -> float:
        """The provisioning rate (used e.g. to size windowed-join state)."""
        if self.arrival == "piecewise":
            return self.schedule[-1][1]
        if self.arrival == "closed_loop":
            return self.clients / (self.think_time_s + self.base_service_s)
        return self.rate

    def make_source(self, scale: int = 1):
        """Build the source object driving a (1/*scale* slice of a) job."""
        if self.arrival == "constant":
            return ConstantSource(self.rate / scale)
        if self.arrival == "piecewise":
            return PiecewiseSource(
                [(at_s, rate / scale) for at_s, rate in self.schedule]
            )
        if self.arrival == "diurnal":
            return DiurnalSource(
                base_rate=self.rate / scale,
                period_s=self.period_s,
                trough_factor=self.trough_factor,
                bursts=self.bursts,
                steps_per_period=self.steps_per_period,
            )
        return ClosedLoopSource(
            clients=max(1, self.clients // scale),
            think_time_s=self.think_time_s,
            base_service_s=self.base_service_s,
            interval_s=self.control_interval_s,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> WorkloadSpec:
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec:
    """One named experiment situation, fully described by plain data."""

    name: str = ""
    #: A row of :data:`repro.apps.APPS`.
    app: str = "traffic"
    #: Presentation only — excluded from the cache key, like
    #: :attr:`RunSpec.label`.
    description: str = ""
    workload: WorkloadSpec = WorkloadSpec()
    #: Checkpoint (traffic/join) or commit (wordcount) interval.
    interval_s: float = 8.0
    #: Initial L0 phase: one of the app row's named presets, or
    #: per-stage L0 file counts.
    initial_l0: Union[str, Dict[str, int]] = "aligned"
    storage: str = "tmpfs"
    mitigation: Optional[MitigationPlan] = None
    faults: Optional[FaultPlan] = None
    #: ``True`` is the default config, ``False`` the same as ``None``.
    resilience: Optional[ResilienceConfig] = None
    #: Copies of the app chain sharing the nodes (repro.apps.tenancy).
    tenants: int = 1
    #: Join-app buffering horizon (its state size is rate x window).
    window_s: float = 30.0
    #: Elastic cluster layer (repro.cluster): failure detection and
    #: migration pacing; its scheduled joins and leaves are entries of
    #: ``faults``.  ``None`` = static topology; serialized (and
    #: cache-keyed) only when set, so legacy scenario keys are
    #: untouched.
    cluster: Optional[ClusterSpec] = None

    def __post_init__(self) -> None:
        if self.app not in APPS:
            raise ConfigurationError(
                f"unknown app {self.app!r}; expected one of {tuple(APPS)}"
            )
        profile_by_name(self.storage)  # raises on unknown profiles
        if self.tenants < 1:
            raise ConfigurationError("tenants must be >= 1")
        if self.window_s <= 0:
            raise ConfigurationError("window_s must be > 0")
        if self.workload is None:
            raise ConfigurationError("workload must be a WorkloadSpec or its dict form")
        for name, cls in (("workload", WorkloadSpec), ("mitigation", MitigationPlan),
                          ("faults", FaultPlan), ("cluster", ClusterSpec)):
            object.__setattr__(self, name, _layer(name, getattr(self, name), cls))
        object.__setattr__(
            self, "resilience", load_resilience_config(self.resilience)
        )

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "app": self.app,
            "description": self.description,
            "workload": self.workload.to_dict(),
            "interval_s": self.interval_s,
            "initial_l0": self.initial_l0,
            "storage": self.storage,
            "mitigation": (
                None if self.mitigation is None else asdict(self.mitigation)
            ),
            "faults": None if self.faults is None else self.faults.to_dict(),
            "resilience": (
                None if self.resilience is None else self.resilience.to_dict()
            ),
            "tenants": self.tenants,
            "window_s": self.window_s,
        }
        # only serialized when set: keeps every pre-cluster scenario's
        # dict — and therefore its cache key — byte-identical
        if self.cluster is not None:
            payload["cluster"] = self.cluster.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> ScenarioSpec:
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})

    def key_dict(self) -> dict:
        """Canonical content for cache hashing.

        ``name`` and ``description`` are presentation and excluded, so
        an ad-hoc spec with identical content shares the library entry's
        cache address.
        """
        payload = self.to_dict()
        payload.pop("name")
        payload.pop("description")
        return payload

    def with_faults(self, faults: Optional[FaultPlan]) -> ScenarioSpec:
        """A copy running under a different fault plan, with the
        scenario's own ``node_join``/``node_leave`` entries kept ahead of
        *faults*' entries."""
        from dataclasses import replace

        own = tuple(s for s in self.faults or () if s.kind in MEMBERSHIP_KINDS)
        if own:
            base = self.faults if faults is None else faults
            faults = replace(base, faults=own + tuple(faults or ()))
        return replace(self, faults=faults)

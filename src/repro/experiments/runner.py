"""Standard experiment settings.

Every figure/table benchmark shares :class:`ExperimentSettings` so that
the durations, warmup and seeds are uniform and the EXPERIMENTS.md
numbers are regenerable with one call each; the runs themselves go
through :func:`repro.scenarios.run.run_scenario`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import List, Optional

from ..trace import Tracer

__all__ = ["ExperimentSettings"]


@dataclass(frozen=True, kw_only=True)
class ExperimentSettings:
    """Run length and measurement conventions shared by experiments."""

    duration_s: float = 200.0
    warmup_s: float = 40.0
    seed: int = 1
    #: Window for pXX timelines (the paper uses 50 ms for fine-grained
    #: analysis; 500 ms for the long timelines to keep plots readable).
    fine_window_s: float = 0.05
    coarse_window_s: float = 0.5
    #: Record a structured trace of the run (spans/instants/counters);
    #: the events travel on the RunSummary through the executor cache.
    trace: bool = False

    @property
    def measure_span(self):
        return self.warmup_s, self.duration_s

    def with_seed(self, seed: int) -> ExperimentSettings:
        """A copy running under a different seed (multi-seed sweeps)."""
        return replace(self, seed=seed)

    def seed_series(self, count: int, first: Optional[int] = None) -> List[ExperimentSettings]:
        """*count* consecutive-seed copies, for statistical sweeps."""
        base = self.seed if first is None else first
        return [self.with_seed(base + i) for i in range(count)]

    def to_dict(self) -> dict:
        """Plain-data form (cache keys, logs)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> ExperimentSettings:
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})

    def make_tracer(self) -> Optional[Tracer]:
        """A fresh :class:`Tracer` when tracing is on, else ``None``."""
        return Tracer() if self.trace else None


DEFAULT_SETTINGS = ExperimentSettings()

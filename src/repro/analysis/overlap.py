"""ShadowSync overlap analysis.

Tools that answer the paper's diagnostic questions from recorded spans
and timelines:

* when do flush and compaction activities overlap, and for how long
  (the direct ShadowSync exposure, §3.2);
* do compaction bursts of different stages coincide (statistical
  ShadowSync, §3.3);
* where will scheduled overlaps recur, given the trigger periods — the
  LCM argument of Figure 1.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..metrics.spans import SpanLog
from ..serialize import register

__all__ = [
    "scheduled_overlap_times",
    "overlap_report",
    "burst_alignment",
    "OverlapReport",
]


def scheduled_overlap_times(
    period_a: float,
    period_b: float,
    horizon: float,
    offset_a: float = 0.0,
    offset_b: float = 0.0,
    tolerance: float = 1e-9,
) -> List[float]:
    """Times within ``[0, horizon]`` at which two periodic activities
    fire simultaneously.

    For commensurable periods the coincidences recur with period
    ``lcm(period_a, period_b)`` — the scheduling argument behind
    Figure 1's spike cadence (flush every 8 s, compaction every 32 s ⇒
    overlap every 32 s).
    """
    if period_a <= 0 or period_b <= 0:
        raise AnalysisError("periods must be positive")
    times: List[float] = []
    t_a = offset_a
    while t_a <= horizon + tolerance:
        # Is t_a also a firing time of b?
        k = round((t_a - offset_b) / period_b)
        if k >= 0 and abs(offset_b + k * period_b - t_a) <= tolerance:
            times.append(t_a)
        t_a += period_a
    return times


def coincidence_period(period_a: float, period_b: float) -> Optional[float]:
    """LCM of two periods if they are commensurable (rational ratio),
    else ``None`` (coincidences never exactly recur)."""
    if period_a <= 0 or period_b <= 0:
        raise AnalysisError("periods must be positive")
    ratio = period_a / period_b
    frac = (ratio).as_integer_ratio()
    # Guard against irrational-ish ratios exploding the fraction.
    if frac[0] > 10**6 or frac[1] > 10**6:
        return None
    return period_b * frac[0] / math.gcd(frac[0], frac[1]) * 1.0


@register
class OverlapReport:
    """Quantified ShadowSync exposure of one run window."""

    __slots__ = (
        "window",
        "flush_compaction_overlap_s",
        "flush_busy_s",
        "compaction_busy_s",
        "peak_flush_concurrency",
        "peak_compaction_concurrency",
    )

    def __init__(self, window: Tuple[float, float]) -> None:
        self.window = window
        self.flush_compaction_overlap_s = 0.0
        self.flush_busy_s = 0.0
        self.compaction_busy_s = 0.0
        self.peak_flush_concurrency = 0
        self.peak_compaction_concurrency = 0

    @property
    def overlap_fraction(self) -> float:
        """Share of compaction-busy time spent overlapping flushes."""
        if self.compaction_busy_s == 0:
            return 0.0
        return self.flush_compaction_overlap_s / self.compaction_busy_s

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "flush_compaction_overlap_s": self.flush_compaction_overlap_s,
            "flush_busy_s": self.flush_busy_s,
            "compaction_busy_s": self.compaction_busy_s,
            "peak_flush_concurrency": self.peak_flush_concurrency,
            "peak_compaction_concurrency": self.peak_compaction_concurrency,
            "overlap_fraction": self.overlap_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> OverlapReport:
        report = cls(tuple(data["window"]))
        report.flush_compaction_overlap_s = data.get("flush_compaction_overlap_s", 0.0)
        report.flush_busy_s = data.get("flush_busy_s", 0.0)
        report.compaction_busy_s = data.get("compaction_busy_s", 0.0)
        report.peak_flush_concurrency = data.get("peak_flush_concurrency", 0)
        report.peak_compaction_concurrency = data.get("peak_compaction_concurrency", 0)
        return report


def overlap_report(
    spans: SpanLog, start: float, end: float, dt: float = 0.01
) -> OverlapReport:
    """Measure flush/compaction co-activity in ``[start, end)``."""
    if end <= start:
        raise AnalysisError("empty analysis window")
    report = OverlapReport((start, end))
    _t, flush = spans.concurrency_series(start, end, dt=dt, kind="flush")
    _t, compaction = spans.concurrency_series(start, end, dt=dt, kind="compaction")
    report.flush_busy_s = float(np.sum(flush > 0) * dt)
    report.compaction_busy_s = float(np.sum(compaction > 0) * dt)
    report.flush_compaction_overlap_s = float(
        np.sum((flush > 0) & (compaction > 0)) * dt
    )
    report.peak_flush_concurrency = int(flush.max()) if len(flush) else 0
    report.peak_compaction_concurrency = int(compaction.max()) if len(compaction) else 0
    return report


def burst_alignment(
    spans: SpanLog,
    stages: Sequence[str],
    checkpoint_times: Sequence[float],
    kind: str = "compaction",
) -> Dict[int, Dict[str, int]]:
    """Per-checkpoint activity counts per stage.

    The statistical-ShadowSync signature (§3.3) is several stages'
    bursts landing in the *same* checkpoint period; the scheduled
    signature (§3.2) is bursts alternating between periods.  Returns
    ``{checkpoint_index: {stage: count}}``.
    """
    result: Dict[int, Dict[str, int]] = {}
    for stage in stages:
        counts = spans.per_cycle_counts(checkpoint_times, kind=kind, stage=stage)
        for period, count in counts.items():
            result.setdefault(period, {})[stage] = count
    return result


def alignment_score(per_checkpoint: Dict[int, Dict[str, int]]) -> float:
    """How synchronized the stages' bursts are, in [0, 1].

    1.0 = every stage's activity concentrates in the same checkpoint
    periods (statistical ShadowSync); lower = spread/alternating.
    Computed as the mean over stages of the cosine similarity between
    the stage's per-period counts and the total per-period counts.
    """
    if not per_checkpoint:
        raise AnalysisError("empty alignment input")
    stages = sorted({s for counts in per_checkpoint.values() for s in counts})
    periods = sorted(per_checkpoint)
    matrix = np.array(
        [
            [per_checkpoint[p].get(stage, 0) for p in periods]
            for stage in stages
        ],
        dtype=float,
    )
    total = matrix.sum(axis=0)
    score = 0.0
    counted = 0
    for row in matrix:
        if row.sum() == 0 or total.sum() == 0:
            continue
        denom = np.linalg.norm(row) * np.linalg.norm(total)
        if denom > 0:
            score += float(np.dot(row, total) / denom)
            counted += 1
    if counted == 0:
        return 0.0
    return score / counted

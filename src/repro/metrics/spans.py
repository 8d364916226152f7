"""Activity spans: the start/end intervals of flush and compaction jobs.

Figure 7 of the paper plots each flush/compaction activity as a line
segment from its start to its end; Figures 6(c)/(d) plot the resulting
*concurrency* (how many activities of a kind are in flight at each
moment).  :class:`SpanLog` records spans and derives both views, plus
the pairwise-overlap measure used by the ShadowSync detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ActivitySpan", "SpanLog"]


@dataclass(frozen=True)
class ActivitySpan:
    """One completed background activity."""

    kind: str  # "flush" | "compaction"
    name: str
    stage: str
    instance: int
    node: str
    start: float
    end: float
    #: Bytes processed (memtable size for flush, input size for compaction).
    input_bytes: int = 0
    submit: Optional[float] = None
    #: Compaction/scheduling policy that produced the job ("" for
    #: flushes and pre-policy traces).
    policy: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: ActivitySpan) -> bool:
        """True when the two spans share any positive-length interval."""
        return self.start < other.end and other.start < self.end


class SpanLog:
    """An append-only log of :class:`ActivitySpan` records."""

    def __init__(self) -> None:
        self._spans: List[ActivitySpan] = []

    def add(self, span: ActivitySpan) -> None:
        self._spans.append(span)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self):
        return iter(self._spans)

    def spans(
        self,
        kind: Optional[str] = None,
        stage: Optional[str] = None,
        node: Optional[str] = None,
        window: Optional[Tuple[float, float]] = None,
    ) -> List[ActivitySpan]:
        """Spans filtered by kind / stage / node / time window.

        A *window* ``(t0, t1)`` selects spans intersecting the interval.
        """
        result = self._spans
        if kind is not None:
            result = [s for s in result if s.kind == kind]
        if stage is not None:
            result = [s for s in result if s.stage == stage]
        if node is not None:
            result = [s for s in result if s.node == node]
        if window is not None:
            t0, t1 = window
            result = [s for s in result if s.end > t0 and s.start < t1]
        return list(result)

    def count(self, **filters) -> int:
        return len(self.spans(**filters))

    def total_input_bytes(self, **filters) -> int:
        return sum(s.input_bytes for s in self.spans(**filters))

    # ------------------------------------------------------------------
    # derived timelines
    # ------------------------------------------------------------------

    def concurrency_series(
        self,
        start: float,
        end: float,
        dt: float = 0.05,
        kind: Optional[str] = None,
        stage: Optional[str] = None,
        node: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Number of in-flight activities per *dt* window.

        This regenerates the concurrency plots of Figures 6(c)/(d),
        8(c)/(d), 16(c)–(f) and 18(c)–(f).
        """
        times = np.arange(start, end, dt)
        counts = np.zeros(len(times))
        selected = self.spans(kind=kind, stage=stage, node=node,
                              window=(start, end))
        if selected:
            # Difference-array formulation of the interval stabbing:
            # +1 at each span's first bin, -1 past its last, then a
            # cumulative sum — O(spans + grid) instead of O(spans × grid).
            lo = np.floor(
                (np.array([s.start for s in selected]) - start) / dt
            ).astype(int)
            hi = np.ceil(
                (np.array([s.end for s in selected]) - start) / dt
            ).astype(int)
            lo = np.maximum(lo, 0)
            hi = np.minimum(hi, len(times))
            valid = hi > lo
            delta = np.zeros(len(times) + 1)
            np.add.at(delta, lo[valid], 1.0)
            np.add.at(delta, hi[valid], -1.0)
            counts = np.cumsum(delta[:-1])
        return times, counts

    def overlap_seconds(
        self, kind_a: str, kind_b: str, start: float, end: float, dt: float = 0.01
    ) -> float:
        """Seconds in [start, end) during which at least one activity of
        *kind_a* and one of *kind_b* run simultaneously — the direct
        measure of ShadowSync exposure."""
        _t, count_a = self.concurrency_series(start, end, dt=dt, kind=kind_a)
        _t, count_b = self.concurrency_series(start, end, dt=dt, kind=kind_b)
        return float(np.sum((count_a > 0) & (count_b > 0)) * dt)

    def per_cycle_counts(
        self,
        cycle_starts: Sequence[float],
        kind: str,
        stage: Optional[str] = None,
        by: str = "start",
    ) -> Dict[int, int]:
        """Count spans within each ``[cycle_starts[i], cycle_starts[i+1])``
        interval — Table 1's per-checkpoint rows.

        ``by="start"`` buckets by execution start (what actually ran
        when); ``by="submit"`` buckets by submission time (what the
        *trigger* logic scheduled when — the right view when a small
        pool queues jobs across checkpoint boundaries).
        """
        if by not in ("start", "submit"):
            raise ValueError(f"by must be 'start' or 'submit', got {by!r}")
        edges = list(cycle_starts)
        counts: Dict[int, int] = {i: 0 for i in range(len(edges))}
        spans = self.spans(kind=kind, stage=stage)
        if not spans or not edges:
            return counts
        whens = np.array([
            span.start if by == "start" else (
                span.submit if span.submit is not None else span.start
            )
            for span in spans
        ])
        periods = np.searchsorted(np.asarray(edges), whens, side="right") - 1
        tallies = np.bincount(periods[periods >= 0], minlength=len(edges))
        for i, tally in enumerate(tallies.tolist()):
            counts[i] = tally
        return counts

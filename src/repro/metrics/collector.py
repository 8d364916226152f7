"""The run-level metrics collector.

One :class:`MetricsCollector` is attached to a
:class:`~repro.stream.engine.StreamJob` and aggregates everything the
paper's evaluation needs:

* flush / compaction activity spans (via thread-pool observers),
* per-node CPU utilization step series,
* per-flow queue/rate histories (kept on the flows themselves),
* checkpoint trigger times,
* per-checkpoint statistics (Table 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..serialize import register
from .spans import ActivitySpan, SpanLog
from .timeline import StepSeries

__all__ = ["CheckpointStats", "MetricsCollector"]


@register
class CheckpointStats:
    """Statistics of one checkpoint period, one row-group of Table 1."""

    __slots__ = (
        "index",
        "time",
        "flush_count",
        "flush_ms",
        "compaction_count",
        "compaction_ms",
        "compaction_input_mb",
    )

    def __init__(self, index: int, time: float) -> None:
        self.index = index
        self.time = time
        self.flush_count: Dict[str, int] = {}
        self.flush_ms: Dict[str, float] = {}
        self.compaction_count: Dict[str, int] = {}
        self.compaction_ms: Dict[str, float] = {}
        self.compaction_input_mb: float = 0.0

    def to_dict(self) -> dict:
        return {
            "checkpoint": self.index,
            "time": self.time,
            "flush_count": dict(self.flush_count),
            "avg_flush_ms": dict(self.flush_ms),
            "compaction_count": dict(self.compaction_count),
            "avg_compaction_ms": dict(self.compaction_ms),
            "compaction_input_mb": self.compaction_input_mb,
        }

    @classmethod
    def from_dict(cls, data: dict) -> CheckpointStats:
        stats = cls(data["checkpoint"], data["time"])
        stats.flush_count = dict(data.get("flush_count", {}))
        stats.flush_ms = dict(data.get("avg_flush_ms", {}))
        stats.compaction_count = dict(data.get("compaction_count", {}))
        stats.compaction_ms = dict(data.get("avg_compaction_ms", {}))
        stats.compaction_input_mb = data.get("compaction_input_mb", 0.0)
        return stats


class MetricsCollector:
    """Aggregates spans, utilization and checkpoint bookkeeping."""

    def __init__(self) -> None:
        self.spans = SpanLog()
        self.checkpoint_times: List[float] = []
        self._resources: List = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def watch_pool(self, pool, node: str) -> None:
        """Subscribe to a thread pool's job lifecycle."""

        def observer(job, what: str, node=node) -> None:
            if what != "end":
                return
            meta = job.metadata
            self.spans.add(
                ActivitySpan(
                    kind=job.kind,
                    name=job.name,
                    stage=meta.get("stage", ""),
                    instance=meta.get("instance", -1),
                    node=node,
                    start=job.start_time,
                    end=job.end_time,
                    input_bytes=meta.get("input_bytes", 0),
                    submit=job.submit_time,
                    policy=meta.get("policy", ""),
                )
            )

        pool.observers.append(observer)

    def watch_resource(self, resource) -> None:
        self._resources.append(resource)

    def note_checkpoint(self, time: float) -> None:
        self.checkpoint_times.append(time)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def cpu_series(self, node: Optional[str] = None) -> StepSeries:
        """Utilization (cores in use) of one node, or the mean across
        nodes when *node* is ``None``."""
        resources = [
            r for r in self._resources if node is None or r.name == node
        ]
        if node is not None:
            if not resources:
                raise KeyError(f"no resource named {node!r}")
            return StepSeries(resources[0].util_segments)
        # mean across nodes: merge breakpoints and sample every series
        # at every merged time (vectorized — the per-node histories hold
        # tens of thousands of breakpoints over a 200 s run).
        count = max(len(resources), 1)
        series_list = [StepSeries(r.util_segments) for r in resources]
        nonempty = [s.times for s in series_list if len(s)]
        if not nonempty:
            return StepSeries([])
        all_times = np.unique(np.concatenate(nonempty))
        total = np.zeros(len(all_times))
        for series in series_list:
            total += series.values_at(all_times)
        return StepSeries(zip(all_times.tolist(), (total / count).tolist()))

    def node_names(self) -> List[str]:
        return [r.name for r in self._resources]

    def checkpoint_stats(self, durations: bool = True) -> List[CheckpointStats]:
        """Per-checkpoint flush/compaction statistics (Table 1).

        An activity belongs to the checkpoint period in which it
        *started*.
        """
        edges = list(self.checkpoint_times)
        stats = [CheckpointStats(i + 1, t) for i, t in enumerate(edges)]
        if not stats:
            return []

        # A span belongs to period i when edges[i] <= start < edges[i+1]
        # (last period open-ended); one searchsorted replaces the
        # O(spans × checkpoints) scan.
        spans_list = list(self.spans)
        if not spans_list:
            return stats
        starts = np.array([span.start for span in spans_list])
        periods = np.searchsorted(np.asarray(edges), starts, side="right") - 1

        flush_durations: Dict[Tuple[int, str], List[float]] = {}
        comp_durations: Dict[Tuple[int, str], List[float]] = {}
        for span, period in zip(spans_list, periods):
            if period < 0:
                continue
            row = stats[period]
            stage = span.stage
            if span.kind == "flush":
                row.flush_count[stage] = row.flush_count.get(stage, 0) + 1
                flush_durations.setdefault((period, stage), []).append(span.duration)
            elif span.kind == "compaction":
                row.compaction_count[stage] = row.compaction_count.get(stage, 0) + 1
                comp_durations.setdefault((period, stage), []).append(span.duration)
                row.compaction_input_mb += span.input_bytes / 1e6

        if durations:
            for (period, stage), values in flush_durations.items():
                stats[period].flush_ms[stage] = 1000.0 * float(np.mean(values))
            for (period, stage), values in comp_durations.items():
                stats[period].compaction_ms[stage] = 1000.0 * float(np.mean(values))
        return stats

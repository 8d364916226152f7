"""Serializable run summaries.

A :class:`~repro.stream.engine.StreamJobResult` holds the live
:class:`~repro.stream.engine.StreamJob` — generators, event callbacks,
open flows — and therefore cannot cross a process boundary or be stored
on disk.  :class:`RunSummary` is the picklable/JSON-able reduction of a
run: everything the sweep-shaped figures (12–16, 19–20, the §5 headline)
and the CLI reports consume, extracted once on the worker side.

The reduction is *content-complete* for those consumers: tail summary,
windowed p99.9 timelines at the fine (50 ms) and coarse (500 ms)
windows, flush/compaction concurrency timelines, checkpoint bookkeeping,
per-checkpoint burst alignment and the ShadowSync overlap report.
``to_dict``/``from_dict`` round-trip exactly (JSON float repr is
shortest-roundtrip), which is what lets the result cache substitute a
stored summary for a live run bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List

from ..serialize import register

__all__ = ["RunSummary", "summarize_run"]

#: dt of the concurrency timelines, matching the paper's 50 ms analysis
#: grids (Figures 6, 15, 16, 18).
CONCURRENCY_DT = 0.05


@register
@dataclass
class RunSummary:
    """The serializable digest of one finished stream-job run."""

    kind: str = "traffic"
    label: str = ""
    #: Name of the scenario that ran (library entry or ad-hoc spec).
    scenario: str = ""
    seed: int = 0
    duration_s: float = 0.0
    warmup_s: float = 0.0
    fine_window_s: float = 0.05
    coarse_window_s: float = 0.5
    #: p50/p95/p99/p999/max over the measured span, seconds.
    tails: Dict[str, float] = field(default_factory=dict)
    #: Windowed p99.9 timeline at the coarse window (plot-friendly).
    coarse_times: List[float] = field(default_factory=list)
    coarse_p999: List[float] = field(default_factory=list)
    #: Windowed p99.9 timeline at the fine window (Kneedle input).
    fine_times: List[float] = field(default_factory=list)
    fine_p999: List[float] = field(default_factory=list)
    #: Shared grid of the concurrency timelines (dt = 50 ms).
    concurrency_times: List[float] = field(default_factory=list)
    flush_concurrency: List[float] = field(default_factory=list)
    compaction_concurrency: List[float] = field(default_factory=list)
    #: Checkpoint trigger times within the measured span.
    checkpoint_times: List[float] = field(default_factory=list)
    #: Table 1 rows (:meth:`CheckpointStats.to_dict`), whole run.
    checkpoint_stats: List[dict] = field(default_factory=list)
    #: ``{checkpoint_index: {stage: compaction_count}}`` (§3.3 alignment).
    per_checkpoint_compactions: Dict[int, Dict[str, int]] = field(
        default_factory=dict
    )
    #: :meth:`OverlapReport.to_dict` over the measured span.
    overlap: Dict = field(default_factory=dict)
    #: Run-level activity counters (flushes, compactions, stalls, ...).
    activities: Dict[str, float] = field(default_factory=dict)
    #: Trace schema version of :attr:`trace_events` (0 = untraced run).
    trace_schema: int = 0
    #: :meth:`TraceEvent.to_dict` records when the run was traced; they
    #: ride the summary through the executor cache so ``repro trace``
    #: works on cached runs too.
    trace_events: List[dict] = field(default_factory=list)
    #: :meth:`FaultPlan.to_dict` of the injected plan (``None`` = clean).
    fault_plan: dict = field(default_factory=dict)
    #: One record per executed fault (kind, node, start/end, recovery).
    fault_events: List[dict] = field(default_factory=list)
    #: :meth:`InvariantViolation.to_dict` records caught during the run.
    invariant_violations: List[dict] = field(default_factory=list)
    #: :meth:`ResilienceController.report` digest (``{}`` = layer off):
    #: guard mode windows, trips, shed counts, watchdog restarts,
    #: upload retries/sheds.
    resilience: Dict = field(default_factory=dict)
    #: :meth:`ClusterManager.report` digest (``{}`` = static topology):
    #: membership log, suspicions, migrations, ownership flips,
    #: rebalance windows.
    cluster: Dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    @property
    def p999(self) -> float:
        return self.tails["p999"]

    @property
    def peak_p999(self) -> float:
        """Highest coarse-window p99.9 — the figure captions' 'spike'."""
        return float(max(self.coarse_p999)) if self.coarse_p999 else 0.0

    @property
    def compaction_concurrency_peak(self) -> float:
        return (
            float(max(self.compaction_concurrency))
            if self.compaction_concurrency
            else 0.0
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> RunSummary:
        data = dict(data)
        # JSON object keys are strings; restore the checkpoint indices.
        alignment = data.get("per_checkpoint_compactions") or {}
        data["per_checkpoint_compactions"] = {
            int(k): dict(v) for k, v in alignment.items()
        }
        return cls(**data)


def summarize_run(result, settings, kind: str = "traffic",
                  label: str = "", scenario: str = "") -> RunSummary:
    """Reduce a live :class:`StreamJobResult` to a :class:`RunSummary`.

    This is the worker-side step of the parallel executor: it runs in
    the subprocess, touches every lazily-computed view once, and only
    the plain-data summary crosses the process boundary.
    """
    from ..analysis.overlap import burst_alignment, overlap_report
    from ..metrics.percentiles import tail_summary, windowed_quantile
    from ..trace import TRACE_SCHEMA_VERSION

    start, end = settings.warmup_s, settings.duration_s
    times, latency, weights = result.end_to_end_latency(start, end)
    coarse_t, coarse_v = windowed_quantile(
        times, latency, settings.coarse_window_s, 0.999, weights
    )
    fine_t, fine_v = windowed_quantile(
        times, latency, settings.fine_window_s, 0.999, weights
    )
    conc_t, flush_c = result.concurrency("flush", start, end, dt=CONCURRENCY_DT)
    _, comp_c = result.concurrency("compaction", start, end, dt=CONCURRENCY_DT)
    cps = [t for t in result.coordinator.checkpoint_times() if t >= start]
    stage_names = [stage.name for stage in result.job.stages]
    alignment = (
        burst_alignment(result.spans, stage_names, cps) if cps else {}
    )
    report = overlap_report(result.spans, start, end).to_dict()
    completed = result.coordinator.completed
    tracer = result.tracer
    trace_events = (
        [event.to_dict() for event in tracer] if tracer.enabled else []
    )
    reports = result.reports()
    faults = reports.get("faults", {})
    return RunSummary(
        kind=kind,
        label=label,
        scenario=scenario,
        seed=settings.seed,
        duration_s=settings.duration_s,
        warmup_s=settings.warmup_s,
        fine_window_s=settings.fine_window_s,
        coarse_window_s=settings.coarse_window_s,
        tails=tail_summary(latency, weights),
        coarse_times=coarse_t.tolist(),
        coarse_p999=coarse_v.tolist(),
        fine_times=fine_t.tolist(),
        fine_p999=fine_v.tolist(),
        concurrency_times=conc_t.tolist(),
        flush_concurrency=flush_c.tolist(),
        compaction_concurrency=comp_c.tolist(),
        checkpoint_times=cps,
        checkpoint_stats=[s.to_dict() for s in result.checkpoint_stats()],
        per_checkpoint_compactions=alignment,
        overlap=report,
        activities={
            "flushes": result.spans.count(kind="flush"),
            "compactions": result.spans.count(kind="compaction"),
            "compaction_input_bytes": result.spans.total_input_bytes(
                kind="compaction"
            ),
            "write_stall_events": result.job.backend.write_stall_events,
            "checkpoints_triggered": len(result.coordinator.records),
            "checkpoints_completed": len(completed),
        },
        trace_schema=TRACE_SCHEMA_VERSION if trace_events else 0,
        trace_events=trace_events,
        fault_plan=faults.get("plan", {}),
        fault_events=faults.get("events", []),
        invariant_violations=faults.get("invariant_violations", []),
        resilience=reports.get("resilience", {}),
        cluster=reports.get("cluster", {}),
    )

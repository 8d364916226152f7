"""The shadow-sync audit: static catalog x runtime wait-for graph.

:func:`analyze_sync` is the tentpole entry point (also exposed as
``repro.api.analyze_sync`` and the ``repro sync`` CLI verb):

1. run the DS2xx static rules over the source tree (sync-point catalog
   compliance);
2. run (or load) a traced scenario and extract the runtime wait-for
   graph (:mod:`.waitgraph`);
3. diff the runtime edges against the declared catalog — undeclared
   edges are **shadow sync**;
4. feed the edge windows into the millibottleneck detector so latency
   spikes pick up a ``sync`` attribution, and fold the spike windows
   back onto each edge as critical-path blocked time.

The audit passes when there are no shadow edges and no unsuppressed
DS2xx findings: every synchronization point the run exercised is
declared, and every declared point survived static review.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ...errors import AnalysisError
from .catalog import SYNC_CATALOG
from .waitgraph import (
    SyncEdge,
    attribute_spikes,
    diff_against_catalog,
    extract_wait_graph,
    sync_windows,
)

__all__ = ["SyncAuditReport", "analyze_sync"]

#: Default source tree for the static half.
_PACKAGE_ROOT = Path(__file__).resolve().parents[2]


@dataclass
class SyncAuditReport:
    """Joined static + dynamic view of the system's synchronization."""

    scenario: Optional[str]
    duration_s: float
    seed: int
    #: Unsuppressed DS2xx findings on the audited tree.
    findings: List = field(default_factory=list)
    #: Runtime wait-for edges (catalog-diffed).
    edges: List[SyncEdge] = field(default_factory=list)
    #: Edges with no declared primitive — the shadow sync.
    shadow_edges: List[SyncEdge] = field(default_factory=list)
    #: Millibottleneck spikes in the traced run / sync-attributed count.
    spike_count: int = 0
    sync_attributed_spikes: int = 0
    #: Paths the static half covered.
    paths: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.shadow_edges

    @property
    def blocked_s(self) -> float:
        return sum(edge.blocked_s for edge in self.edges)

    @property
    def critical_blocked_s(self) -> float:
        return sum(edge.spike_overlap_s for edge in self.edges)

    def to_dict(self) -> dict:
        from ..lint import findings_json

        return {
            "tool": "repro.sanitize.syncgraph",
            "scenario": self.scenario,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "lint": findings_json(self.findings),
            "catalog": [prim.to_dict() for prim in SYNC_CATALOG],
            "edges": [edge.to_dict() for edge in self.edges],
            "shadow_edges": [edge.to_dict() for edge in self.shadow_edges],
            "blocked_s": self.blocked_s,
            "critical_blocked_s": self.critical_blocked_s,
            "spikes": {
                "count": self.spike_count,
                "sync_attributed": self.sync_attributed_spikes,
            },
            "paths": self.paths,
            "ok": self.ok,
        }

    def render(self) -> str:
        lines: List[str] = []
        if self.scenario is not None:
            lines.append(
                f"shadow-sync audit: scenario={self.scenario} "
                f"duration={self.duration_s:g}s seed={self.seed}"
            )
        if self.edges:
            lines.append("runtime sync edges (wait-for graph):")
            header = (
                f"  {'kind':<32} {'src':<22} {'dst':<20} "
                f"{'n':>5} {'blocked_s':>10} {'on-spike_s':>10}  declared-by"
            )
            lines.append(header)
            for edge in self.edges:
                declared = edge.declared_by or "** SHADOW **"
                lines.append(
                    f"  {edge.kind:<32} {edge.src:<22} {edge.dst:<20} "
                    f"{edge.count:>5} {edge.blocked_s:>10.3f} "
                    f"{edge.spike_overlap_s:>10.3f}  {declared}"
                )
            lines.append(
                f"  total blocked {self.blocked_s:.3f}s, "
                f"{self.critical_blocked_s:.3f}s on latency-spike windows"
            )
            lines.append(
                f"  spikes: {self.spike_count} detected, "
                f"{self.sync_attributed_spikes} sync-attributed"
            )
        elif self.scenario is not None:
            lines.append("runtime sync edges: none observed")
        if self.shadow_edges:
            lines.append(
                f"SHADOW SYNC: {len(self.shadow_edges)} runtime edge(s) "
                "with no declared primitive:"
            )
            for edge in self.shadow_edges:
                lines.append(
                    f"  {edge.kind}: {edge.src} -> {edge.dst} "
                    f"({edge.blocked_s:.3f}s blocked); declare it in "
                    "repro.sanitize.syncgraph.catalog.SYNC_CATALOG"
                )
        if self.findings:
            from ..lint import render_findings

            lines.append("static sync findings (DS2xx):")
            lines.append(render_findings(self.findings))
        verdict = "clean" if self.ok else "FAILED"
        lines.append(
            f"shadow-sync audit: {verdict} "
            f"({len(self.shadow_edges)} shadow edge(s), "
            f"{len(self.findings)} static finding(s))"
        )
        return "\n".join(lines)


def _traced_events(
    scenario: str, duration_s: float, warmup_s: float, seed: int
) -> list:
    """Run *scenario* with tracing on (through the cached grid runner)
    and return its trace events."""
    from ...experiments.parallel import RunSpec, run_grid
    from ...experiments.runner import ExperimentSettings
    from ...trace import TraceEvent, Tracer

    settings = ExperimentSettings(
        duration_s=duration_s, warmup_s=warmup_s, seed=seed, trace=True
    )
    summary = run_grid(
        [
            RunSpec(
                scenario=scenario,
                settings=settings,
                label=f"sync:{scenario}",
            )
        ]
    )[0]
    if not summary.trace_events:
        raise AnalysisError(
            f"scenario {scenario!r} produced no trace events; "
            "cannot extract a wait-for graph"
        )
    tracer = Tracer()
    tracer.extend(TraceEvent.from_dict(e) for e in summary.trace_events)
    # Exported traces carry no latency track; rebuild it from the
    # summary's fine timeline so spike detection has something to read.
    for t, v in zip(summary.fine_times, summary.fine_p999):
        tracer.counter("latency_p999", "latency", t, v, tid="latency")
    return tracer.events


def analyze_sync(
    scenario: Optional[str] = "baseline_traffic",
    duration_s: float = 120.0,
    warmup_s: float = 10.0,
    seed: int = 1,
    paths: Optional[Sequence[Union[str, Path]]] = None,
    events: Optional[Sequence] = None,
    static: bool = True,
    spike_threshold: Optional[float] = None,
) -> SyncAuditReport:
    """Run the hidden-synchronization audit.

    *scenario* names the traced run for the dynamic half (``None``
    skips it unless *events* supplies a pre-recorded trace).  *paths*
    scopes the static half (defaults to the installed ``repro``
    package); ``static=False`` skips it.  *events* short-circuits the
    scenario run with an existing trace (a sequence of
    :class:`~repro.trace.TraceEvent`).
    """
    findings: List = []
    lint_paths_list: List[str] = []
    if static:
        from ..lint import lint_paths

        targets = [Path(p) for p in paths] if paths else [_PACKAGE_ROOT]
        lint_paths_list = [str(p) for p in targets]
        findings = [
            f
            for f in lint_paths(targets, rules=["DS2xx"])
            if f.rule_id.startswith("DS2") or f.rule_id == "DS000"
        ]

    edges: List[SyncEdge] = []
    shadows: List[SyncEdge] = []
    spike_count = 0
    sync_spikes = 0
    if events is None and scenario is not None:
        events = _traced_events(scenario, duration_s, warmup_s, seed)
    if events is not None:
        edges = extract_wait_graph(events)
        edges, shadows = diff_against_catalog(edges)
        windows = sync_windows(edges)
        from ...analysis.millibottleneck import analyze_trace

        try:
            mb = analyze_trace(
                list(events),
                threshold=spike_threshold,
                windows={"sync": windows},
            )
        except AnalysisError:
            mb = None  # trace without a latency track: edges still stand
        if mb is not None:
            spike_count = len(mb.spikes)
            sync_spikes = sum(1 for s in mb.spikes if s.sync)
            attribute_spikes(edges, [s.window for s in mb.spikes])

    return SyncAuditReport(
        scenario=scenario if events is not None else None,
        duration_s=duration_s,
        seed=seed,
        findings=findings,
        edges=edges,
        shadow_edges=shadows,
        spike_count=spike_count,
        sync_attributed_spikes=sync_spikes,
        paths=lint_paths_list,
    )

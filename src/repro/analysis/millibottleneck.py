"""The millibottleneck detector: attribute p99.9 spikes to hidden sync.

Implements the paper's diagnostic method on top of recorded traces:
slide a fine (50–100 ms) window over CPU demand to flag *saturation
windows* (millibottlenecks — full utilization too brief to move average
utilization), then attribute each windowed p99.9 latency spike to the
flush/compaction span set concurrently in flight around it.  A spike is
**attributed** when flushes and compactions overlap inside its window
and, where CPU data is available, the CPU actually saturated there.
Runs are further classified as *scheduled* ShadowSync (bursts
alternating between checkpoint periods, the LCM cadence of Figure 1) or
*statistical* ShadowSync (several stages' bursts landing in the same
period, §3.3) via :mod:`repro.analysis.overlap`.

Spans are the only evidence.  Two entry points cover the two places
they live:

* :func:`analyze_result` — a live :class:`~repro.stream.engine.StreamJobResult`
  (spans + CPU series + coordinator all in memory);
* :func:`analyze_trace` — a list of :class:`~repro.trace.TraceEvent`
  (e.g. loaded back from an exported JSONL trace, or a cached run's
  :meth:`~repro.experiments.summary.RunSummary.to_tracer`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..metrics.spans import ActivitySpan, SpanLog
from ..metrics.timeline import StepSeries, millibottleneck_windows
from .longtail import find_spikes
from .overlap import alignment_score, burst_alignment

__all__ = [
    "SpikeAttribution",
    "MillibottleneckReport",
    "detect",
    "analyze_result",
    "analyze_trace",
    "spans_from_trace",
]

#: Alignment score above which a run reads as statistical ShadowSync.
STATISTICAL_ALIGNMENT = 0.8
#: Default spike-threshold rule shared with the figure scripts.
SPIKE_FLOOR_S = 0.8
SPIKE_MEDIAN_FACTOR = 2.5
#: Padding on each side of a spike's above-threshold region.
PAD_S = 1.0

#: One ``(label, start, end)`` attribution window.
Window = Tuple[str, float, float]
#: The :class:`SpikeAttribution` label fields a window source can feed.
CHANNELS = ("faults", "resilience", "cluster", "sync")


@dataclass
class SpikeAttribution:
    """One latency spike and the background work blamed for it."""

    peak_time: float
    peak_s: float
    #: Evidence window: from the triggering checkpoint (or onset − pad)
    #: to the spike's end + pad.  Span counts, overlap and labels read it.
    window: Tuple[float, float]
    flush_spans: int
    compaction_spans: int
    overlap_s: float
    #: Fraction of the spike's padded region with CPU ≥ saturation;
    #: None when no CPU data.
    cpu_saturated_fraction: Optional[float]
    #: 0-based checkpoint period containing the peak (-1: before first).
    checkpoint_index: int
    #: Stages with compaction activity inside the window.
    stages: List[str] = field(default_factory=list)
    attributed: bool = False
    #: "scheduled" | "statistical" | "unattributed"
    classification: str = "unattributed"
    #: Injected-fault windows (``kind@node``) overlapping this spike —
    #: distinguishes ShadowSync spikes from fault-induced ones.
    faults: List[str] = field(default_factory=list)
    #: Resilience-action windows (``degraded``, ``load-shed``) the spike
    #: fell into — spikes inside a degraded window are the overload the
    #: guard was already reacting to, not new hidden synchronization.
    resilience: List[str] = field(default_factory=list)
    #: Compaction/scheduling policies of the compactions inside the
    #: window — distinguishes mitigation-zoo members in the blame.
    policies: List[str] = field(default_factory=list)
    #: Cluster-layer windows (``rebalance:...``, ``failover:...``,
    #: ``scale-in:...``) overlapping the spike — elastic churn is a
    #: *known* synchronization source, not hidden ShadowSync.
    cluster: List[str] = field(default_factory=list)
    #: Wait-for-graph sync-edge kinds (``checkpoint-barrier``,
    #: ``compaction-during-checkpoint``, ...) whose blocked windows
    #: overlap the spike — the shadow-sync audit's blame channel.
    sync: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**asdict(self), "window": list(self.window)}

    @classmethod
    def from_dict(cls, data: dict) -> SpikeAttribution:
        data = dict(data)
        data["window"] = tuple(data["window"])
        return cls(**data)


@dataclass
class MillibottleneckReport:
    """Detector output for one run window."""

    window_s: float
    threshold_s: float
    spikes: List[SpikeAttribution] = field(default_factory=list)
    #: CPU saturation windows (empty when no CPU data was supplied).
    saturation_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Stage-burst alignment score; None without checkpoints or staged
    #: spans.
    alignment: Optional[float] = None
    #: "scheduled" | "statistical" | "none"
    classification: str = "none"

    @property
    def spike_count(self) -> int:
        return len(self.spikes)

    @property
    def attributed_count(self) -> int:
        return sum(1 for s in self.spikes if s.attributed)

    @property
    def attributed_fraction(self) -> float:
        if not self.spikes:
            return 0.0
        return self.attributed_count / len(self.spikes)

    def to_dict(self) -> dict:
        return {
            "window_s": self.window_s,
            "threshold_s": self.threshold_s,
            "spikes": [s.to_dict() for s in self.spikes],
            "saturation_windows": [list(w) for w in self.saturation_windows],
            "alignment": self.alignment,
            "classification": self.classification,
            "spike_count": self.spike_count,
            "attributed_count": self.attributed_count,
            "attributed_fraction": self.attributed_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> MillibottleneckReport:
        return cls(
            window_s=data["window_s"],
            threshold_s=data["threshold_s"],
            spikes=[SpikeAttribution.from_dict(s) for s in data.get("spikes", [])],
            saturation_windows=[
                tuple(w) for w in data.get("saturation_windows", [])
            ],
            alignment=data.get("alignment"),
            classification=data.get("classification", "none"),
        )

    def render(self) -> str:
        """Terminal rendering: the verdict line, then one row per spike."""
        from ..experiments.report import render_table

        lines = [
            f"millibottleneck report (window {self.window_s * 1000:.0f} ms, "
            f"spike threshold {self.threshold_s:.2f} s)",
            f"spikes: {self.spike_count}  attributed: {self.attributed_count} "
            f"({self.attributed_fraction:.0%})  "
            f"classification: {self.classification}"
            + (f"  alignment: {self.alignment:.2f}"
               if self.alignment is not None else ""),
        ]
        if self.saturation_windows:
            lines.append(f"cpu saturation windows: {len(self.saturation_windows)}")
        if self.spikes:
            headers = ["peak t [s]", "p99.9 [s]", "flush", "compaction",
                       "overlap [s]", "CP", "class"]
            rows = [
                [f"{s.peak_time:.1f}", f"{s.peak_s:.2f}", s.flush_spans,
                 s.compaction_spans, f"{s.overlap_s:.2f}", s.checkpoint_index,
                 s.classification]
                for s in self.spikes
            ]
            lines.append(render_table(headers, rows))
        return "\n".join(lines)


def default_threshold(p999: Sequence[float]) -> float:
    """The figures' spike rule: ``max(2.5 × median, 0.8 s)``."""
    values = np.asarray(p999, dtype=float)
    if len(values) == 0:
        return SPIKE_FLOOR_S
    return max(SPIKE_MEDIAN_FACTOR * float(np.median(values)), SPIKE_FLOOR_S)


def _checkpoint_index(checkpoint_times: Sequence[float], when: float) -> int:
    if not len(checkpoint_times):
        return -1
    return int(
        np.searchsorted(np.asarray(checkpoint_times, dtype=float), when, "right") - 1
    )


def detect(
    times: Sequence[float],
    p999: Sequence[float],
    *,
    window_s: float = 0.05,
    spans: Optional[SpanLog] = None,
    cpu: Optional[StepSeries] = None,
    capacity: Optional[float] = None,
    checkpoint_times: Sequence[float] = (),
    windows: Optional[Mapping[str, Sequence[Window]]] = None,
    threshold: Optional[float] = None,
    saturation: float = 0.95,
    min_gap: float = 1.0,
) -> MillibottleneckReport:
    """Core detector over a windowed-p99.9 timeline.

    *times*/*p999* is the latency timeline (window *window_s*) and
    *spans* the run's flush/compaction :class:`SpanLog`; the run's
    alignment counts each stage's compactions per checkpoint period of
    *checkpoint_times*.  When a CPU :class:`StepSeries` (and its
    *capacity*) is given, spikes whose window never saturates the CPU
    stay unattributed and the report carries the run's saturation
    windows.  *windows* maps each of :data:`CHANNELS` to the
    known-cause spans of that kind; a spike carries the labels of every
    span its window overlaps.

    A p99.9 peak lags the flush/compaction burst behind it by the drain
    time, so a spike's evidence window opens at the last checkpoint at
    or before its onset — when that checkpoint is at most one median
    checkpoint spacing earlier — and never later than ``onset − PAD_S``.
    The CPU gate reads only the spike's own padded region: the cause
    may come first, but the millibottleneck must be on while the spike
    is up.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(p999, dtype=float)
    if t.shape != v.shape:
        raise AnalysisError("times and p999 must have equal shapes")
    windows = windows or {}
    unknown = sorted(set(windows) - set(CHANNELS))
    if unknown:
        raise AnalysisError(
            f"unknown attribution channel(s) {unknown}; known: {list(CHANNELS)}"
        )
    if threshold is None:
        threshold = default_threshold(v)

    report = MillibottleneckReport(window_s=window_s, threshold_s=float(threshold))
    if len(t) == 0:
        return report

    if cpu is not None and capacity is not None:
        report.saturation_windows = millibottleneck_windows(
            cpu,
            capacity,
            float(t[0]),
            float(t[-1]) + window_s,
            dt=window_s,
            saturation=saturation,
            max_duration=float("inf"),
        )

    cps = np.asarray(checkpoint_times, dtype=float)
    spacing = float(np.median(np.diff(cps))) if len(cps) > 1 else 0.0

    for spike in find_spikes(t, v, threshold, min_gap=min_gap):
        # Latency at time τ reflects work queued up to a flush/compaction
        # burst earlier, so the evidence window reaches back to the
        # checkpoint that triggered it.
        w0 = spike.start - PAD_S
        w1 = spike.end + PAD_S
        last = _checkpoint_index(cps, spike.start)
        if last >= 0 and spike.start - cps[last] <= spacing:
            w0 = min(w0, float(cps[last]))
        n_flush = n_comp = 0
        overlap_s = 0.0
        stages: List[str] = []
        policies: List[str] = []
        if spans is not None:
            flushes = spans.spans(kind="flush", window=(w0, w1))
            compactions = spans.spans(kind="compaction", window=(w0, w1))
            n_flush = len(flushes)
            n_comp = len(compactions)
            overlap_s = spans.overlap_seconds("flush", "compaction", w0, w1)
            stages = sorted({s.stage for s in compactions if s.stage})
            policies = sorted(
                {getattr(s, "policy", "") for s in compactions} - {""}
            )

        cpu_frac: Optional[float] = None
        if cpu is not None and capacity is not None:
            cpu_frac = cpu.fraction_above(
                saturation * capacity, spike.start - PAD_S, w1
            )

        cp_index = _checkpoint_index(cps, spike.peak_time)

        labels = {
            channel: sorted(
                {name for name, ws, we in known if ws <= w1 and we >= w0}
            )
            for channel, known in windows.items()
        }

        attributed = (
            n_flush > 0
            and n_comp > 0
            and overlap_s > 0.0
            and (cpu_frac is None or cpu_frac > 0.0)
        )
        if not attributed:
            classification = "unattributed"
        elif len(stages) >= 2:
            classification = "statistical"
        else:
            classification = "scheduled"

        report.spikes.append(
            SpikeAttribution(
                peak_time=spike.peak_time,
                peak_s=spike.peak,
                window=(w0, w1),
                flush_spans=n_flush,
                compaction_spans=n_comp,
                overlap_s=overlap_s,
                cpu_saturated_fraction=cpu_frac,
                checkpoint_index=cp_index,
                stages=stages,
                attributed=attributed,
                classification=classification,
                policies=policies,
                **labels,
            )
        )

    stage_names = sorted({s.stage for s in spans or () if s.stage})
    if len(cps) and stage_names:
        report.alignment = alignment_score(
            burst_alignment(spans, stage_names, checkpoint_times)
        )
    if report.attributed_count == 0:
        report.classification = "none"
    elif report.alignment is not None and report.alignment >= STATISTICAL_ALIGNMENT:
        report.classification = "statistical"
    else:
        report.classification = "scheduled"
    return report


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def analyze_result(
    result,
    start: float = 0.0,
    end: Optional[float] = None,
    window_s: float = 0.05,
    **kwargs,
) -> MillibottleneckReport:
    """Run the detector on a live :class:`StreamJobResult`, with the
    attribution windows of the job's installed subsystems."""
    if end is None:
        end = result.duration
    times, p999 = result.latency_timeline(0.999, window=window_s, start=start, end=end)
    checkpoints = [
        t for t in result.coordinator.checkpoint_times() if start <= t <= end
    ]
    kwargs.setdefault("cpu", result.cpu_series(None))
    kwargs.setdefault("capacity", result.job.cluster.cores_per_node)
    return detect(
        times,
        p999,
        window_s=window_s,
        spans=result.spans,
        checkpoint_times=checkpoints,
        windows=result.windows(),
        **kwargs,
    )


def spans_from_trace(events) -> SpanLog:
    """Rebuild a :class:`SpanLog` from traced flush/compaction spans."""
    log = SpanLog()
    for e in events:
        if e.ph != "X" or e.cat not in ("flush", "compaction"):
            continue
        queue_delay = float(e.args.get("queue_delay", 0.0) or 0.0)
        log.add(
            ActivitySpan(
                kind=e.cat,
                name=e.name,
                stage=str(e.args.get("stage", "")),
                instance=int(e.args.get("instance", 0) or 0),
                node=e.tid.split("/")[0] if e.tid else "",
                start=e.ts,
                end=e.ts + e.dur,
                input_bytes=int(e.args.get("input_bytes", 0) or 0),
                submit=e.ts - queue_delay,
                policy=str(e.args.get("policy", "") or ""),
            )
        )
    return log


def _counter_track(events, cat: str, mean_over_tids: bool = False):
    """(times, values) of a counter category; optionally averaged over tids."""
    points: Dict[float, List[float]] = {}
    for e in events:
        if e.ph != "C" or e.cat != cat:
            continue
        points.setdefault(e.ts, []).append(float(e.args.get("value", 0.0)))
    if not points:
        return np.array([]), np.array([])
    times = np.array(sorted(points))
    if mean_over_tids:
        values = np.array([float(np.mean(points[t])) for t in times])
    else:
        values = np.array([points[t][-1] for t in times])
    return times, values


def analyze_trace(
    events,
    *,
    capacity: Optional[float] = None,
    window_s: float = 0.05,
    windows: Optional[Mapping[str, Sequence[Window]]] = None,
    **kwargs,
) -> MillibottleneckReport:
    """Run the detector on exported trace events.

    Expects the tracks :meth:`StreamJobResult.export_trace` writes:
    flush/compaction ``X`` spans, per-node ``cpu`` counters, a
    ``latency_p999`` counter track, and ``checkpoint-trigger`` instants.
    Checkpoints before the latency track's first window are ignored, as
    :func:`analyze_result` ignores those before its *start*.  Pass
    *capacity* (cores per node) to enable CPU gating.  Fault windows are
    read off the ``fault-inject`` instants; *windows* adds (or, per
    channel, replaces) attribution windows.
    """
    events = list(events)
    lat_t, lat_v = _counter_track(events, "latency")
    if len(lat_t) == 0:
        raise AnalysisError("trace has no latency_p999 counter track")
    spans = spans_from_trace(events)
    checkpoints = sorted(
        e.ts
        for e in events
        if e.ph == "i" and e.name == "checkpoint-trigger" and e.ts >= lat_t[0]
    )
    cpu_t, cpu_v = _counter_track(events, "cpu", mean_over_tids=True)
    cpu = StepSeries(zip(cpu_t, cpu_v)) if len(cpu_t) and capacity else None
    fault_windows = [
        (
            f"{e.args.get('kind', 'fault')}@{e.tid}",
            e.ts,
            e.ts + float(e.args.get("duration_s", 0.0) or 0.0),
        )
        for e in events
        if e.ph == "i" and e.cat == "fault" and e.name == "fault-inject"
    ]
    return detect(
        lat_t,
        lat_v,
        window_s=window_s,
        spans=spans,
        cpu=cpu,
        capacity=capacity if cpu is not None else None,
        checkpoint_times=checkpoints,
        windows={"faults": fault_windows, **(windows or {})},
        **kwargs,
    )

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

Three entry points cover the three places evidence lives:

* :func:`analyze_result` — a live :class:`~repro.stream.engine.StreamJobResult`
  (spans + CPU series + coordinator all in memory);
* :func:`analyze_summary` — a cached :class:`~repro.experiments.summary.RunSummary`
  (concurrency timelines, no CPU series);
* :func:`analyze_trace` — a list of :class:`~repro.trace.TraceEvent`
  (e.g. loaded back from an exported JSONL trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..metrics.spans import ActivitySpan, SpanLog
from ..metrics.timeline import StepSeries, millibottleneck_windows
from ..serialize import register
from .longtail import find_spikes
from .overlap import alignment_score, burst_alignment

__all__ = [
    "SpikeAttribution",
    "MillibottleneckReport",
    "detect",
    "analyze_result",
    "analyze_summary",
    "analyze_trace",
    "spans_from_trace",
]

#: Alignment score above which a run reads as statistical ShadowSync.
STATISTICAL_ALIGNMENT = 0.8
#: Default spike-threshold rule shared with the figure scripts.
SPIKE_FLOOR_S = 0.8
SPIKE_MEDIAN_FACTOR = 2.5

#: One ``(label, start, end)`` attribution window.
Window = Tuple[str, float, float]
#: The :class:`SpikeAttribution` label fields a window source can feed.
CHANNELS = ("faults", "resilience", "cluster", "sync")


@register
@dataclass
class SpikeAttribution:
    """One latency spike and the background work blamed for it."""

    peak_time: float
    peak_s: float
    window: Tuple[float, float]
    flush_spans: int
    compaction_spans: int
    overlap_s: float
    #: Fraction of the window with CPU ≥ saturation; None when no CPU data.
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
        return {
            "peak_time": self.peak_time,
            "peak_s": self.peak_s,
            "window": list(self.window),
            "flush_spans": self.flush_spans,
            "compaction_spans": self.compaction_spans,
            "overlap_s": self.overlap_s,
            "cpu_saturated_fraction": self.cpu_saturated_fraction,
            "checkpoint_index": self.checkpoint_index,
            "stages": list(self.stages),
            "attributed": self.attributed,
            "classification": self.classification,
            "faults": list(self.faults),
            "resilience": list(self.resilience),
            "policies": list(self.policies),
            "cluster": list(self.cluster),
            "sync": list(self.sync),
        }

    @classmethod
    def from_dict(cls, data: dict) -> SpikeAttribution:
        data = dict(data)
        data["window"] = tuple(data["window"])
        return cls(**data)


@register
@dataclass
class MillibottleneckReport:
    """Detector output for one run window."""

    window_s: float
    threshold_s: float
    spikes: List[SpikeAttribution] = field(default_factory=list)
    #: CPU saturation windows (empty when no CPU data was supplied).
    saturation_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Stage-burst alignment score; None without per-checkpoint counts.
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
    concurrency_times: Optional[Sequence[float]] = None,
    flush_concurrency: Optional[Sequence[float]] = None,
    compaction_concurrency: Optional[Sequence[float]] = None,
    cpu: Optional[StepSeries] = None,
    capacity: Optional[float] = None,
    checkpoint_times: Sequence[float] = (),
    per_checkpoint: Optional[Dict[int, Dict[str, int]]] = None,
    windows: Optional[Mapping[str, Sequence[Window]]] = None,
    threshold: Optional[float] = None,
    pad_s: float = 1.0,
    saturation: float = 0.95,
    min_gap: float = 1.0,
) -> MillibottleneckReport:
    """Core detector over a windowed-p99.9 timeline.

    *times*/*p999* is the latency timeline (window *window_s*).  Spans
    may come either as a :class:`SpanLog` or, for cached summaries, as
    flush/compaction concurrency arrays on *concurrency_times*.  When a
    CPU :class:`StepSeries` (and its *capacity*) is given, spikes whose
    window never saturates the CPU stay unattributed and the report
    carries the run's saturation windows.  *windows* maps each of
    :data:`CHANNELS` to the known-cause spans of that kind; a spike
    carries the labels of every span its window overlaps.
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

    ct = cf = cc = None
    if concurrency_times is not None:
        ct = np.asarray(concurrency_times, dtype=float)
        cf = np.asarray(flush_concurrency, dtype=float)
        cc = np.asarray(compaction_concurrency, dtype=float)
        if not (ct.shape == cf.shape == cc.shape):
            raise AnalysisError("concurrency arrays must have equal shapes")

    for spike in find_spikes(t, v, threshold, min_gap=min_gap):
        # Latency at time τ reflects work queued up to a flush/compaction
        # burst slightly earlier, so look at a padded window.
        w0 = spike.start - pad_s
        w1 = spike.end + pad_s
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
        elif ct is not None and len(ct) > 1:
            dt = float(np.median(np.diff(ct)))
            mask = (ct >= w0) & (ct <= w1)
            if mask.any():
                n_flush = int(cf[mask].max())
                n_comp = int(cc[mask].max())
                overlap_s = float(
                    np.sum((cf[mask] > 0) & (cc[mask] > 0)) * dt
                )

        cpu_frac: Optional[float] = None
        if cpu is not None and capacity is not None:
            cpu_frac = cpu.fraction_above(saturation * capacity, w0, w1)

        cp_index = _checkpoint_index(checkpoint_times, spike.peak_time)
        if not stages and per_checkpoint is not None and cp_index in per_checkpoint:
            stages = sorted(
                name
                for name, count in per_checkpoint[cp_index].items()
                if count > 0
            )

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

    if per_checkpoint:
        report.alignment = alignment_score(per_checkpoint)
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
    stage_names = [stage.name for stage in result.job.stages]
    per_checkpoint = (
        burst_alignment(result.spans, stage_names, checkpoints)
        if checkpoints
        else None
    )
    kwargs.setdefault("cpu", result.cpu_series(None))
    kwargs.setdefault("capacity", result.job.cluster.cores_per_node)
    return detect(
        times,
        p999,
        window_s=window_s,
        spans=result.spans,
        checkpoint_times=checkpoints,
        per_checkpoint=per_checkpoint,
        windows=result.windows(),
        **kwargs,
    )


def analyze_summary(summary, **kwargs) -> MillibottleneckReport:
    """Run the detector on a cached :class:`RunSummary`.

    Summaries carry no CPU series, so attribution relies on span
    concurrency alone (``cpu_saturated_fraction`` stays ``None``).
    Attribution windows are rebuilt from the summary's per-layer
    digests.
    """
    resilience = summary.resilience or {}
    shed = (resilience.get("shed") or {}).get("windows", [])
    windows = {
        "faults": [
            (f"{e['kind']}@{e['node']}", e["start"], e["end"])
            for e in summary.fault_events
            if e.get("end") is not None
        ],
        "resilience": [
            (label, start, end)
            for label, start, end in [
                *resilience.get("mode_windows", []),
                *(("load-shed", start, end) for start, end in shed),
            ]
            if end is not None
        ],
        "cluster": [
            tuple(window) for window in (summary.cluster or {}).get("windows", [])
        ],
    }
    return detect(
        summary.fine_times,
        summary.fine_p999,
        window_s=summary.fine_window_s,
        concurrency_times=summary.concurrency_times,
        flush_concurrency=summary.flush_concurrency,
        compaction_concurrency=summary.compaction_concurrency,
        checkpoint_times=summary.checkpoint_times,
        per_checkpoint=summary.per_checkpoint_compactions or None,
        windows=windows,
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
    Pass *capacity* (cores per node) to enable CPU gating.  Fault
    windows are read off the ``fault-inject`` instants; *windows* adds
    (or, per channel, replaces) attribution windows.
    """
    events = list(events)
    lat_t, lat_v = _counter_track(events, "latency")
    if len(lat_t) == 0:
        raise AnalysisError("trace has no latency_p999 counter track")
    spans = spans_from_trace(events)
    checkpoints = sorted(
        e.ts for e in events if e.ph == "i" and e.name == "checkpoint-trigger"
    )
    stage_names = sorted({s.stage for s in spans if s.stage})
    per_checkpoint = (
        burst_alignment(spans, stage_names, checkpoints)
        if checkpoints and stage_names
        else None
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
        per_checkpoint=per_checkpoint,
        windows={"faults": fault_windows, **(windows or {})},
        **kwargs,
    )

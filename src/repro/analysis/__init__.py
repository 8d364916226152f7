"""Offline analysis: knee detection, overlap analysis, tail statistics."""

from .kneedle import KneedleResult, kneedle
from .longtail import LatencySpike, find_spikes, reduction_ratio, spike_period
from .millibottleneck import (
    MillibottleneckReport,
    SpikeAttribution,
    analyze_result,
    analyze_trace,
    detect,
)
from .overlap import (
    OverlapReport,
    alignment_score,
    burst_alignment,
    overlap_report,
)

__all__ = [
    "KneedleResult",
    "kneedle",
    "LatencySpike",
    "find_spikes",
    "reduction_ratio",
    "spike_period",
    "MillibottleneckReport",
    "SpikeAttribution",
    "analyze_result",
    "analyze_trace",
    "detect",
    "OverlapReport",
    "alignment_score",
    "burst_alignment",
    "overlap_report",
]

"""The paper's contribution: ShadowSync detection and mitigation."""

from .allocation import (
    concurrency_latency_curve,
    recommend_compaction_threads,
    recommend_flush_threads,
)
from .autotuner import TunedConfig, TuneReport, tune
from .delay import DelayedCompactionPolicy, estimate_drain_time
from .detector import ShadowSyncDetector, ShadowSyncFinding
from .mitigation import MitigationPlan
from .silk import SilkPolicy, install_silk_pauses
from .thresholds import RandomizedL0Trigger, StaticL0Trigger

__all__ = [
    "concurrency_latency_curve",
    "recommend_compaction_threads",
    "recommend_flush_threads",
    "TunedConfig",
    "TuneReport",
    "tune",
    "DelayedCompactionPolicy",
    "estimate_drain_time",
    "ShadowSyncDetector",
    "ShadowSyncFinding",
    "MitigationPlan",
    "SilkPolicy",
    "install_silk_pauses",
    "RandomizedL0Trigger",
    "StaticL0Trigger",
]

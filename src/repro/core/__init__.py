"""The paper's contribution: ShadowSync mitigation and its tuning."""

from .allocation import (
    concurrency_latency_curve,
    recommend_compaction_threads,
    recommend_flush_threads,
)
from .autotuner import TunedConfig, TuneReport, tune
from .delay import estimate_drain_time
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
    "estimate_drain_time",
    "MitigationPlan",
    "SilkPolicy",
    "install_silk_pauses",
    "RandomizedL0Trigger",
    "StaticL0Trigger",
]

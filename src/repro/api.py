"""The stable public facade of the reproduction.

``repro.api`` is the one import surface scripts, notebooks and examples
should use.  Everything here is re-exported from its implementation
module and covered by the schema/round-trip tests; internal module
paths (``repro.experiments.runner`` etc.) may reorganize between
releases, this namespace will not.

Quickstart::

    from repro import api

    result = api.run_scenario(
        "diurnal_flash",                       # or a custom ScenarioSpec
        settings=api.ExperimentSettings(
            duration_s=104.0, warmup_s=32.0, trace=True))
    print(result.tail_summary(start=32.0))
    report = api.analyze_result(result, start=32.0)
    print(report.attributed_fraction, report.classification)
    result.export_trace("run.trace.json", format="chrome")  # → Perfetto

:func:`run_scenario` is the canonical entry point.
"""

from __future__ import annotations

from .analysis.millibottleneck import (
    MillibottleneckReport,
    SpikeAttribution,
    analyze_result,
    analyze_trace,
)
from .cluster import (
    ClusterManager,
    ClusterSpec,
    PhiAccrualDetector,
    install_cluster,
)
from .config import CheckpointConfig, ClusterConfig, CostModel
from .core import (
    MitigationPlan,
    TunedConfig,
    TuneReport,
    estimate_drain_time,
    recommend_compaction_threads,
    recommend_flush_threads,
    tune,
)
from .experiments.parallel import RunSpec, run_grid
from .experiments.shard import (
    ShardedResult,
    execute_spec_sharded,
    merge_summaries,
    plan_shards,
)
from .experiments.runner import DEFAULT_SETTINGS, ExperimentSettings
from .errors import OverloadError
from .experiments.report import render_series, render_table, render_tails
from .experiments.summary import RunSummary, summarize_run
from .faults import (
    ALL_FAULT_KINDS,
    CLUSTER_FAULT_KINDS,
    FAULT_KINDS,
    CheckpointedWordCount,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InvariantChecker,
    InvariantViolation,
    inject_faults,
    load_fault_plan,
    preset_plan,
)
from .lsm import (
    CompactionPolicy,
    LSMOptions,
    LSMStore,
    make_policy,
    policy_names,
    register_policy,
)
from .resilience import (
    LoadShedder,
    ResilienceConfig,
    SLOGuard,
    install_resilience,
)
from .resilience.soak import SoakReport, run_soak
from .scenarios import (
    SCENARIOS,
    SOAK_POOL,
    ScenarioSpec,
    WorkloadSpec,
    build_scenario_job,
    run_scenario,
    sample_scenario,
    scenario,
    scenario_names,
)
from .sanitize import (
    Finding,
    OrderingReport,
    RaceReport,
    SanitizeReport,
    check_ordering,
    SyncAuditReport,
    SyncEdge,
    SyncPrimitive,
    SYNC_CATALOG,
    analyze_sync,
    detect_races,
    findings_json,
    findings_sarif,
    lint_paths,
    render_findings,
    sanitize_experiment,
)
from .sim import Simulator
from .storage.backend import HDD, NVME_SSD, TMPFS, StorageProfile
from .stream.engine import StreamJob, StreamJobResult
from .stream.sources import ConstantSource
from .stream.stage import StageSpec
from .trace import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    TraceEvent,
    Tracer,
    read_jsonl,
)

__all__ = [
    # scenarios (the canonical entry point)
    "run_scenario",
    "ScenarioSpec",
    "WorkloadSpec",
    "SCENARIOS",
    "SOAK_POOL",
    "scenario",
    "scenario_names",
    "sample_scenario",
    "build_scenario_job",
    # runs
    "run_grid",
    "summarize_run",
    "ExperimentSettings",
    "DEFAULT_SETTINGS",
    "RunSpec",
    "RunSummary",
    # sharded execution
    "ShardedResult",
    "plan_shards",
    "execute_spec_sharded",
    "merge_summaries",
    # jobs
    "StreamJob",
    "StreamJobResult",
    "StageSpec",
    "ConstantSource",
    "Simulator",
    "MitigationPlan",
    "CheckpointConfig",
    "ClusterConfig",
    "CostModel",
    "StorageProfile",
    "TMPFS",
    "NVME_SSD",
    "HDD",
    "LSMOptions",
    "LSMStore",
    # mitigation zoo (pluggable compaction/scheduling policies)
    "CompactionPolicy",
    "make_policy",
    "policy_names",
    "register_policy",
    # diagnosis & tuning
    "estimate_drain_time",
    "recommend_flush_threads",
    "recommend_compaction_threads",
    "tune",
    "TunedConfig",
    "TuneReport",
    # elastic cluster layer (membership, failover, migration)
    "ClusterSpec",
    "ClusterManager",
    "PhiAccrualDetector",
    "install_cluster",
    # fault injection & recovery
    "FAULT_KINDS",
    "CLUSTER_FAULT_KINDS",
    "ALL_FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InvariantChecker",
    "InvariantViolation",
    "CheckpointedWordCount",
    "inject_faults",
    "load_fault_plan",
    "preset_plan",
    # overload protection & chaos soak
    "ResilienceConfig",
    "SLOGuard",
    "LoadShedder",
    "install_resilience",
    "run_soak",
    "SoakReport",
    "OverloadError",
    # reporting
    "render_tails",
    "render_series",
    "render_table",
    # tracing
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "TRACE_SCHEMA_VERSION",
    "read_jsonl",
    # analysis
    "MillibottleneckReport",
    "SpikeAttribution",
    "analyze_result",
    "analyze_trace",
    # static analysis & sanitizers
    "lint",
    "sanitize",
    "lint_paths",
    "render_findings",
    "findings_json",
    "findings_sarif",
    "detect_races",
    "check_ordering",
    "sanitize_experiment",
    "Finding",
    "RaceReport",
    "OrderingReport",
    "SanitizeReport",
    # hidden-synchronization analyzer
    "analyze_sync",
    "SyncAuditReport",
    "SyncEdge",
    "SyncPrimitive",
    "SYNC_CATALOG",
]


def lint(*paths):
    """Determinism-lint *paths* (default: this installed package).

    Returns the list of :class:`~repro.sanitize.Finding` — empty means
    clean.  Equivalent to the ``repro lint`` CLI subcommand.
    """
    from pathlib import Path

    targets = [Path(p) for p in paths]
    if not targets:
        targets = [Path(__file__).resolve().parent]
    return lint_paths(targets)


def sanitize(**kwargs) -> SanitizeReport:
    """Run the runtime sanitizers (race detector + ordering checks) on
    one benchmark; see :func:`repro.sanitize.sanitize_experiment` for
    the keyword arguments.  Equivalent to ``repro sanitize``.
    """
    return sanitize_experiment(**kwargs)

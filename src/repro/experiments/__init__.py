"""Experiment definitions: one function per paper table/figure, plus
the parallel executor and serializable run summaries they share."""

from .figures import (
    fig1_fig3_baseline_timeline,
    fig6_point_in_time,
    fig7_zoom_spans,
    fig8_statistical,
    fig12_delay_sweep,
    fig13_flush_thread_sweep,
    fig14_compaction_thread_sweep,
    fig15_kneedle,
    fig16_traffic_mitigation,
    fig17_wordcount_tails,
    fig18_wordcount_timeline,
    fig19_traffic_nvme,
    fig20_wordcount_nvme,
    headline_reduction,
    table1_checkpoint_stats,
)
from .parallel import (
    RunSpec,
    cache_dir,
    cache_enabled,
    clear_cache,
    execute_spec,
    run_grid,
    spec_cache_key,
    sweep,
)
from .report import render_series, render_sweep, render_table, render_tails
from .runner import DEFAULT_SETTINGS, ExperimentSettings
from .shard import (
    ShardedResult,
    execute_spec_sharded,
    merge_summaries,
    plan_shards,
)
from .summary import RunSummary, summarize_run

__all__ = [
    "RunSpec",
    "RunSummary",
    "ShardedResult",
    "execute_spec_sharded",
    "merge_summaries",
    "plan_shards",
    "cache_dir",
    "cache_enabled",
    "clear_cache",
    "execute_spec",
    "run_grid",
    "spec_cache_key",
    "summarize_run",
    "sweep",
    "DEFAULT_SETTINGS",
    "fig1_fig3_baseline_timeline",
    "fig6_point_in_time",
    "fig7_zoom_spans",
    "fig8_statistical",
    "fig12_delay_sweep",
    "fig13_flush_thread_sweep",
    "fig14_compaction_thread_sweep",
    "fig15_kneedle",
    "fig16_traffic_mitigation",
    "fig17_wordcount_tails",
    "fig18_wordcount_timeline",
    "fig19_traffic_nvme",
    "fig20_wordcount_nvme",
    "headline_reduction",
    "table1_checkpoint_stats",
    "render_series",
    "render_sweep",
    "render_table",
    "render_tails",
    "ExperimentSettings",
]

"""Experiment definitions: one function per paper table/figure
(:mod:`.figures`), the claims table that checks them (:mod:`.claims`),
plus the parallel executor and serializable run summaries they share."""

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
    "render_series",
    "render_sweep",
    "render_table",
    "render_tails",
    "ExperimentSettings",
]

"""Sharded execution: planning, slicing, merging and determinism."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentSettings
from repro.experiments.parallel import RunSpec
from repro.experiments.shard import (
    execute_spec_sharded,
    merge_summaries,
    plan_shards,
    shard_seed,
)
from repro.experiments.summary import RunSummary
from repro.stream.stage import StageSpec

SETTINGS = ExperimentSettings(duration_s=20.0, warmup_s=6.0, seed=3)


# ---------------------------------------------------------------------------
# planning & validation
# ---------------------------------------------------------------------------

def test_shard_plan_validates_counts():
    with pytest.raises(ConfigurationError):
        plan_shards(RunSpec(settings=SETTINGS), 0)


def test_plan_shards_accepts_even_splits():
    spec = RunSpec(settings=SETTINGS)
    for shards in (1, 2, 4):
        assert plan_shards(spec, shards) == shards
    wc = RunSpec(scenario="baseline_wordcount", settings=SETTINGS)
    for shards in (1, 2, 4, 8, 16):
        assert plan_shards(wc, shards) == shards


def test_plan_shards_rejects_uneven_splits():
    with pytest.raises(ConfigurationError):
        plan_shards(RunSpec(settings=SETTINGS), 3)
    with pytest.raises(ConfigurationError):
        plan_shards(RunSpec(scenario="baseline_wordcount", settings=SETTINGS), 5)


def test_shard_seeds_are_distinct_per_shard():
    seeds = [shard_seed(1, i) for i in range(8)]
    assert len(set(seeds)) == 8
    assert shard_seed(1, 0) == 1  # shard 0 of a run keeps the run's seed


# ---------------------------------------------------------------------------
# stage slicing
# ---------------------------------------------------------------------------

def test_stage_scaled_divides_parallelism_and_keys():
    spec = StageSpec("map", parallelism=64, distinct_keys=60_000)
    half = spec.scaled(2)
    assert half.parallelism == 32
    assert half.distinct_keys == 30_000
    # Per-instance key share (memtable saturation point) is preserved.
    assert half.distinct_keys_per_instance == spec.distinct_keys_per_instance


def test_stage_scaled_replicates_singletons():
    spec = StageSpec("rank", parallelism=1, distinct_keys=10_000)
    sliced = spec.scaled(4)
    assert sliced.parallelism == 1
    assert sliced.distinct_keys == 2_500


def test_stage_scaled_identity_and_errors():
    spec = StageSpec("map", parallelism=6, distinct_keys=600)
    assert spec.scaled(1) is spec
    with pytest.raises(ConfigurationError):
        spec.scaled(4)  # 6 % 4 != 0


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def _part(label, p50, p999, times, p999_series, flush, activities):
    return RunSummary(
        kind="traffic",
        label=label,
        seed=3,
        duration_s=20.0,
        warmup_s=6.0,
        tails={"p50": p50, "p95": p999 / 2, "p99": p999 / 1.5,
               "p999": p999, "max": p999 * 1.2},
        coarse_times=list(times),
        coarse_p999=list(p999_series),
        fine_times=list(times),
        fine_p999=list(p999_series),
        concurrency_times=list(times),
        flush_concurrency=list(flush),
        compaction_concurrency=list(flush),
        checkpoint_times=[8.0, 16.0],
        checkpoint_stats=[{"checkpoint": 1, "part": label}],
        per_checkpoint_compactions={1: {"s0": 2}},
        activities=dict(activities),
    )


def test_merge_summaries_policy():
    a = _part("a", p50=0.10, p999=1.0, times=[1.0, 2.0],
              p999_series=[0.5, 1.0], flush=[1, 2],
              activities={"flush": 4, "compaction": 1})
    b = _part("b", p50=0.20, p999=2.0, times=[2.0, 3.0],
              p999_series=[1.5, 0.2], flush=[3, 4],
              activities={"flush": 6})
    merged = merge_summaries([a, b], label="run", shards=2)

    # Conservative run-level tails: worst shard except p50 (shard mean).
    assert merged.tails["p999"] == 2.0
    assert merged.tails["max"] == pytest.approx(2.4)
    assert merged.tails["p50"] == pytest.approx(0.15)
    # Tail timelines merge on the union grid, worst shard per window.
    assert merged.coarse_times == [1.0, 2.0, 3.0]
    assert merged.coarse_p999 == [0.5, 1.5, 0.2]
    # Extensive quantities sum across the partitioned cluster.
    assert merged.concurrency_times == [1.0, 2.0, 3.0]
    assert merged.flush_concurrency == [1, 5, 4]
    assert merged.activities == {"flush": 10, "compaction": 1}
    assert merged.per_checkpoint_compactions == {1: {"s0": 4}}
    # Checkpoint stats concatenate in shard order; label records shards.
    assert [row["part"] for row in merged.checkpoint_stats] == ["a", "b"]
    assert merged.label == "run[shards=2]"


def test_merge_summaries_single_part_passthrough_and_errors():
    a = _part("a", 0.1, 1.0, [1.0], [0.5], [1], {"flush": 1})
    assert merge_summaries([a]) is a
    with pytest.raises(ConfigurationError):
        merge_summaries([])
    with pytest.raises(ConfigurationError):
        merge_summaries([a, None])


# ---------------------------------------------------------------------------
# end-to-end determinism
# ---------------------------------------------------------------------------

def test_sharded_run_is_deterministic():
    spec = RunSpec(settings=SETTINGS, label="det")
    first = execute_spec_sharded(spec, 2)
    second = execute_spec_sharded(spec, 2)
    assert first.merged.to_dict() == second.merged.to_dict()
    assert first.shards == 2 and len(first.parts) == 2
    assert first.merged.label == "det[shards=2]"
    assert [p.label for p in first.parts] == [
        "det[shard 0/2]", "det[shard 1/2]"
    ]


def test_sharded_wordcount_runs():
    spec = RunSpec(scenario="baseline_wordcount", settings=SETTINGS)
    out = execute_spec_sharded(spec, 4)
    assert out.merged.label.endswith("[shards=4]")
    assert out.merged.tails["p999"] == max(
        p.tails["p999"] for p in out.parts
    )


def test_shards_one_matches_unsharded():
    from repro.experiments.parallel import execute_spec

    spec = RunSpec(settings=SETTINGS, label="base")
    plain = execute_spec(spec)
    sharded = execute_spec_sharded(spec, 1)
    assert sharded.merged.to_dict() == plain.to_dict()


def test_run_grid_sharded_labels_and_cache_separation(tmp_path):
    from repro.experiments.parallel import run_grid, spec_cache_key

    spec = RunSpec(settings=SETTINGS, label="grid")
    assert spec_cache_key(spec) != spec_cache_key(spec, shards=2)
    assert spec_cache_key(spec) == spec_cache_key(spec, shards=1)
    [summary] = run_grid([spec], shards=2)
    assert summary.label == "grid[shards=2]"

"""Sharded simulation: one run split into independent cluster slices.

The deployments the paper simulates are symmetric: stage instances are
assigned round-robin over nodes, the source rate is split evenly over
hosting nodes, and downstream rates are aggregated and re-split evenly.
A 1/G slice of the cluster — nodes (or, for the single-node WordCount
job, cores), stage parallelism, key spaces and source rate all scaled by
1/G — is therefore itself a well-formed deployment whose per-node and
per-instance load match the full run's.  Sharded mode runs G such
slices as G *independent* simulations, optionally fanned over worker
processes, and merges their summaries.

No synchronization between shards
---------------------------------
The slices share no events, so there is nothing to synchronize: each
shard is a separately seeded simulation that runs to completion on its
own clock, and only the finished summaries meet (see Merging).  That
independence is why the partitioning is by *node group* and not by
stage — stages on one node share its CPU and its flush/compaction
pools, so a per-stage split would couple the parts.

Determinism
-----------
A sharded run is deterministic: the same ``(spec, shards)`` produces an
identical merged summary whether shards execute serially in-process or
across worker processes (each shard is seeded as
``seed + 100003 * shard_index``).  It is *not* bit-identical to the
unsharded run — a slice is a smaller cluster with its own RNG draw
order — so golden state digests always use ``shards=1``.

Merging
-------
Counters and concurrency timelines are summed across shards (they
partition the cluster), per-window tail timelines take the worst shard
per window, and the run-level tail summary is conservative: p95/p99/
p99.9/max report the worst shard, p50 the shard mean.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from typing import List, Optional

from ..errors import ConfigurationError
from .runner import ExperimentSettings  # noqa: F401  (re-exported for callers)
from .summary import RunSummary

__all__ = [
    "ShardedResult",
    "plan_shards",
    "execute_spec_sharded",
    "merge_summaries",
    "shard_seed",
]

#: Seed stride between shards: each slice draws from its own stream.
_SEED_STRIDE = 100003


def shard_seed(seed: int, shard_index: int) -> int:
    """The RNG seed shard *shard_index* of a run seeded *seed* uses."""
    return seed + _SEED_STRIDE * shard_index


def plan_shards(spec, shards: int) -> int:
    """Validate *shards* against *spec*'s deployment shape; returns it.

    Raises :class:`~repro.errors.ConfigurationError` when the cluster
    cannot be sliced evenly (what must divide is the scenario's
    :func:`~repro.scenarios.run.scenario_shard_unit`): the traffic
    job's 4 node groups admit shards ∈ {1, 2, 4}; the single-node
    WordCount job slices its 16 cores, so shards must divide 16.  Stage
    parallelism divisibility is checked by
    :meth:`repro.stream.stage.StageSpec.scaled` at build time; the
    checks here fail fast with the same rules.
    """
    from ..scenarios.run import scenario_shard_unit

    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return shards
    whole, what, stages = scenario_shard_unit(spec.scenario)
    if whole % shards != 0:
        raise ConfigurationError(
            f"{spec.scenario.app} job: {whole} {what} cannot be split into "
            f"{shards} shards"
        )
    # Fail fast on stage divisibility (scaled() re-checks at build time).
    for stage in stages:
        stage.scaled(shards)
    return shards


@dataclass
class ShardedResult:
    """The merged summary of a sharded run plus its per-shard parts."""

    merged: RunSummary
    parts: List[RunSummary]
    shards: int


# ----------------------------------------------------------------------
# per-shard execution
# ----------------------------------------------------------------------

def _execute_one_shard(spec, shards: int, index: int) -> RunSummary:
    """Run shard *index* of *spec* to completion (worker-side step)."""
    from ..scenarios.run import run_scenario
    from .summary import summarize_run

    settings = replace(spec.settings, seed=shard_seed(spec.settings.seed, index))
    result = run_scenario(spec.scenario, settings=settings, scale=shards)
    return summarize_run(
        result,
        settings,
        kind="scenario",
        label=f"{spec.display_label}[shard {index}/{shards}]",
        scenario=spec.scenario.name,
    )


def _shard_worker(payload):
    """Process-pool entry point: ``(index, summary_dict)``."""
    spec, shards, index = payload
    return index, _execute_one_shard(spec, shards, index).to_dict()


def execute_spec_sharded(
    spec, shards: int, jobs: Optional[int] = None
) -> ShardedResult:
    """Run *spec* as *shards* independent slices and merge the results.

    Parameters
    ----------
    spec:
        A :class:`~repro.experiments.parallel.RunSpec`.
    shards:
        Cluster slices (must divide the deployment, see
        :func:`plan_shards`).
    jobs:
        Worker processes for the shard fan-out: ``None``/``1`` runs the
        shards serially in-process, ``0`` uses one process per shard.
        Serial and process execution produce identical merged summaries.

    Returns a :class:`ShardedResult`; ``.merged`` is the
    :class:`RunSummary` a caller would use in place of the unsharded
    one, ``.parts`` keeps the per-shard summaries for inspection.
    """
    plan_shards(spec, shards)
    if shards == 1:
        from .parallel import execute_spec

        summary = execute_spec(spec)
        return ShardedResult(merged=summary, parts=[summary], shards=1)

    workers = shards if jobs is not None and jobs <= 0 else (jobs or 1)
    workers = min(workers, shards)
    parts: List[Optional[RunSummary]] = [None] * shards
    if workers <= 1:
        for index in range(shards):
            # Round-trip through the dict form so in-process results are
            # bit-identical to what a worker process would ship back.
            parts[index] = RunSummary.from_dict(
                _execute_one_shard(spec, shards, index).to_dict()
            )
    else:
        context = multiprocessing.get_context("spawn")
        payloads = [(spec, shards, index) for index in range(shards)]
        with context.Pool(workers) as pool:
            for index, data in pool.imap_unordered(_shard_worker, payloads):
                parts[index] = RunSummary.from_dict(data)
    merged = merge_summaries(parts, label=spec.display_label, shards=shards)
    return ShardedResult(merged=merged, parts=parts, shards=shards)


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------

def _merge_timeline(times_parts, values_parts, combine):
    """Merge per-shard ``(times, values)`` series on the union grid."""
    merged: dict = {}
    for times, values in zip(times_parts, values_parts):
        for t, v in zip(times, values):
            if t in merged:
                merged[t] = combine(merged[t], v)
            else:
                merged[t] = v
    keys = sorted(merged)
    return keys, [merged[t] for t in keys]


def merge_summaries(
    parts: List[RunSummary], label: str = "", shards: Optional[int] = None
) -> RunSummary:
    """Combine per-shard summaries into one cluster-level summary.

    Extensive quantities (activity counters, concurrency timelines,
    per-checkpoint compaction counts) are summed — the shards partition
    the cluster.  Tail timelines take the worst shard per window, and
    the run-level tail summary is conservative: p95/p99/p99.9/max are
    the worst shard's (an upper bound on the cluster tail), p50 is the
    shard mean.  Checkpoint trigger times come from shard 0 (all shards
    share the interval); per-shard checkpoint-stat rows are concatenated
    in shard order.
    """
    if not parts:
        raise ConfigurationError("merge_summaries needs at least one part")
    if any(p is None for p in parts):
        raise ConfigurationError("cannot merge: a shard produced no summary")
    first = parts[0]
    if len(parts) == 1:
        return first
    count = len(parts)

    tails = {}
    for key in ("p50", "p95", "p99", "p999", "max"):
        values = [p.tails[key] for p in parts if key in p.tails]
        if not values:
            continue
        tails[key] = (sum(values) / len(values)) if key == "p50" else max(values)

    coarse_t, coarse_v = _merge_timeline(
        [p.coarse_times for p in parts], [p.coarse_p999 for p in parts], max
    )
    fine_t, fine_v = _merge_timeline(
        [p.fine_times for p in parts], [p.fine_p999 for p in parts], max
    )
    conc_t, flush_c = _merge_timeline(
        [p.concurrency_times for p in parts],
        [p.flush_concurrency for p in parts],
        lambda a, b: a + b,
    )
    _, comp_c = _merge_timeline(
        [p.concurrency_times for p in parts],
        [p.compaction_concurrency for p in parts],
        lambda a, b: a + b,
    )

    activities: dict = {}
    for part in parts:
        for key, value in part.activities.items():
            activities[key] = activities.get(key, 0) + value

    alignment: dict = {}
    for part in parts:
        for index, by_stage in part.per_checkpoint_compactions.items():
            row = alignment.setdefault(index, {})
            for stage, n in by_stage.items():
                row[stage] = row.get(stage, 0) + n

    suffix = f"[shards={shards or count}]"
    return RunSummary(
        kind=first.kind,
        label=(label or first.kind) + suffix,
        scenario=first.scenario,
        seed=first.seed,
        duration_s=first.duration_s,
        warmup_s=first.warmup_s,
        fine_window_s=first.fine_window_s,
        coarse_window_s=first.coarse_window_s,
        tails=tails,
        coarse_times=coarse_t,
        coarse_p999=coarse_v,
        fine_times=fine_t,
        fine_p999=fine_v,
        concurrency_times=conc_t,
        flush_concurrency=flush_c,
        compaction_concurrency=comp_c,
        checkpoint_times=list(first.checkpoint_times),
        checkpoint_stats=[row for p in parts for row in p.checkpoint_stats],
        per_checkpoint_compactions=alignment,
        overlap=dict(first.overlap),
        activities=activities,
        fault_plan=dict(first.fault_plan),
        fault_events=[e for p in parts for e in p.fault_events],
        invariant_violations=[v for p in parts for v in p.invariant_violations],
        resilience=dict(first.resilience),
    )

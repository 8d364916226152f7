"""One function per table/figure of the paper's evaluation.

Each function runs the relevant experiment(s) with the standard
settings and returns a plain dict of the series/rows the paper plots,
plus the derived quantities the reproduction is judged on (spike
period, knee position, reduction ratios).  The claims table
(:mod:`repro.experiments.claims`, ``repro paper``) calls these and
checks the *shape* criteria of DESIGN.md §4 and §6.
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from typing import Callable, Dict, Optional

import numpy as np

from ..analysis.longtail import find_spikes, reduction_ratio, spike_period
from ..analysis.overlap import burst_alignment
from ..apps.traffic_job import build_traffic_job
from ..config import CheckpointConfig, ClusterConfig, CostModel
from ..core.allocation import (
    concurrency_latency_curve,
    recommend_compaction_threads,
)
from ..core.mitigation import MitigationPlan
from ..core.silk import SilkPolicy, install_silk_pauses
from ..faults.capacity import capacity_dip
from ..scenarios.library import scenario
from ..scenarios.run import run_scenario
from ..sim.process import spawn
from ..stream import ConstantSource, StageSpec, StreamJob
from .parallel import RunSpec, run_grid, sweep
from .runner import DEFAULT_SETTINGS, ExperimentSettings

__all__ = [
    "fig1_fig3_baseline_timeline",
    "table1_checkpoint_stats",
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
    "ablation_mitigations",
    "ablation_gc_pauses",
    "ablation_silk",
    "ablation_checkpoint_mode",
    "EXPERIMENTS",
    "ABLATIONS",
    "takes_jobs",
]


def _timeline(result, settings: ExperimentSettings):
    start, end = settings.measure_span
    return result.latency_timeline(
        0.999, window=settings.coarse_window_s, start=start, end=end
    )


#: §3.2's scheduled-ShadowSync deployment: 16 s checkpoints with the
#: stages' L0 counters out of phase (Figures 1, 3, 6, 7 and Table 1).
SCHEDULED = scenario(
    "baseline_traffic",
    name="scheduled_traffic",
    interval_s=16.0,
    initial_l0="staggered",
)


# ----------------------------------------------------------------------
# §2 + §3.2 — the scheduled ShadowSync exemplar (16 s checkpoints)
# ----------------------------------------------------------------------

def fig1_fig3_baseline_timeline(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> Dict:
    """Figures 1 and 3: periodic latency spikes on the baseline.

    16 s checkpoints with stage counters out of phase (§3.2's observed
    condition): each stage's compaction burst recurs every 64 s, the
    two stages alternate, so spikes arrive every ~32 s — the LCM
    cadence of Figure 1.
    """
    result = run_scenario(SCHEDULED, settings=settings)
    times, p999 = _timeline(result, settings)
    floor = float(np.median(p999))
    spikes = find_spikes(times, p999, threshold=max(2.5 * floor, 0.8))
    return {
        "times": times.tolist(),
        "p999": p999.tolist(),
        "floor_s": floor,
        "spikes": [(s.peak_time, s.peak) for s in spikes],
        "spike_period_s": spike_period(spikes),
        "tails": result.tail_summary(start=settings.warmup_s),
    }


def table1_checkpoint_stats(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> Dict:
    """Table 1: per-checkpoint flush/compaction statistics.

    Five consecutive checkpoints after warmup; compaction bursts of 64
    hit alternating stages (s1 at the 1st and 5th, s0 in between),
    matching the staggered scheduled pattern.
    """
    result = run_scenario(SCHEDULED, settings=settings)
    stats = result.checkpoint_stats()
    after_warmup = [s for s in stats if s.time >= settings.warmup_s]
    # Align the 5-checkpoint window on a burst checkpoint, as the paper
    # does (its window starts at a synchronization point, 152 s).
    start = 0
    for i, row in enumerate(after_warmup):
        if sum(row.compaction_count.values()) >= 32:
            start = i
            break
    selected = after_warmup[start : start + 5]
    return {
        "rows": [s.to_dict() for s in selected],
        "stages": ["s0", "s1"],
    }


def fig6_point_in_time(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Dict:
    """Figure 6: CPU, queues and activity concurrency around the spikes."""
    result = run_scenario(SCHEDULED, settings=settings)
    start, end = settings.measure_span
    cpu = result.cpu_series("node0")
    cpu_t, cpu_v = cpu.on_grid(start, end, 0.05)
    q_t, q0 = result.queue_series("s0", start, end)
    _, q1 = result.queue_series("s1", start, end)
    f_t, flush_c = result.concurrency("flush", start, end)
    _, comp_c = result.concurrency("compaction", start, end)
    times, p999 = _timeline(result, settings)
    floor = float(np.median(p999))
    spikes = find_spikes(times, p999, threshold=max(2.5 * floor, 0.8))
    saturated = [
        float(cpu.fraction_above(15.2, s.start - 1.0, s.end + 1.0)) for s in spikes
    ]
    return {
        "cpu": (cpu_t.tolist(), cpu_v.tolist()),
        "queues": (q_t.tolist(), q0.tolist(), q1.tolist()),
        "flush_concurrency": (f_t.tolist(), flush_c.tolist()),
        "compaction_concurrency": (f_t.tolist(), comp_c.tolist()),
        "spikes": [(s.peak_time, s.peak) for s in spikes],
        "cpu_saturated_fraction_at_spikes": saturated,
        "capacity": 16.0,
    }


def fig7_zoom_spans(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Dict:
    """Figure 7: individual flush/compaction spans in one burst window.

    Flushes are short and numerous; the compaction burst's spans last
    much longer because 64 jobs share 16 compaction threads per node
    while contending with message processing.
    """
    result = run_scenario(SCHEDULED, settings=settings)
    # find a checkpoint with a compaction burst after warmup
    stats = result.checkpoint_stats()
    burst_cp = None
    for row in stats:
        if row.time >= settings.warmup_s and sum(row.compaction_count.values()) >= 32:
            burst_cp = row
            break
    if burst_cp is None:  # pragma: no cover - defensive
        raise RuntimeError("no compaction burst found")
    window = (burst_cp.time - 0.5, burst_cp.time + 8.0)
    flushes = result.flush_spans(window=window)
    compactions = result.compaction_spans(window=window)
    return {
        "window": window,
        "flush_spans": [(s.stage, s.start, s.end) for s in flushes],
        "compaction_spans": [(s.stage, s.start, s.end) for s in compactions],
        "mean_flush_s": float(np.mean([s.duration for s in flushes])),
        "mean_compaction_s": float(np.mean([s.duration for s in compactions]))
        if compactions
        else 0.0,
    }


# ----------------------------------------------------------------------
# §3.3 — statistical ShadowSync (8 s checkpoints, aligned counters)
# ----------------------------------------------------------------------

def fig8_statistical(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Dict:
    """Figure 8: aligned counters put both stages' bursts in the same
    checkpoint → even higher spikes (> 2 s) in a 32 s cycle."""
    result = run_scenario("baseline_traffic", settings=settings)
    times, p999 = _timeline(result, settings)
    spikes = find_spikes(times, p999, threshold=1.0)
    cps = [
        t
        for t in result.coordinator.checkpoint_times()
        if t >= settings.warmup_s
    ]
    alignment = burst_alignment(result.spans, ["s0", "s1"], cps)
    return {
        "times": times.tolist(),
        "p999": p999.tolist(),
        "spikes": [(s.peak_time, s.peak) for s in spikes],
        "spike_period_s": spike_period(spikes),
        "per_checkpoint_compactions": {
            k: v for k, v in sorted(alignment.items())
        },
        "tails": result.tail_summary(start=settings.warmup_s),
    }


# ----------------------------------------------------------------------
# §4 — mitigation parameter studies
# ----------------------------------------------------------------------

#: Figure 12's standard 6-point compaction-delay grid (seconds).
DELAY_SWEEP_S = (0.1, 0.5, 1.0, 3.0, 6.0, 8.0)


def fig12_delay_sweep(
    delays=DELAY_SWEEP_S,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 12: compaction delay sweep (on top of the randomized
    trigger, §4.1's combined setting).  Best around the ~1 s drain
    time; a delay near the checkpoint interval wraps into the next
    flush and regresses."""
    summaries = sweep(
        delays,
        lambda delay: RunSpec(
            scenario=scenario(
                "baseline_traffic",
                mitigation=MitigationPlan(
                    randomize_compaction_trigger=True, compaction_delay_s=delay
                ),
            ),
            settings=settings,
            label=f"delay={delay:g}s",
        ),
        jobs=jobs,
    )
    rows = [
        {"delay_s": delay, **summary.tails}
        for delay, summary in zip(delays, summaries)
    ]
    best = min(rows, key=lambda r: r["p999"])
    return {"rows": rows, "best_delay_s": best["delay_s"]}


def fig13_flush_thread_sweep(
    threads=(1, 2, 4, 8, 16, 32, 64),
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 13: flush-pool sweep with §4.1 mitigations active so the
    flush effect is not drowned by compaction spikes.  Severe
    under-allocation is catastrophic; ≈ cores is best; 4× cores pays
    lock-contention overhead."""
    summaries = sweep(
        threads,
        lambda n: RunSpec(
            scenario=scenario(
                "baseline_traffic",
                mitigation=MitigationPlan(
                    randomize_compaction_trigger=True,
                    compaction_delay_s=1.0,
                    flush_threads=n,
                ),
            ),
            settings=settings,
            label=f"flush_threads={n}",
        ),
        jobs=jobs,
    )
    rows = [
        {"flush_threads": n, **summary.tails}
        for n, summary in zip(threads, summaries)
    ]
    best = min(rows, key=lambda r: r["p999"])
    return {"rows": rows, "best_flush_threads": best["flush_threads"]}


def fig14_compaction_thread_sweep(
    threads=(1, 2, 4, 8, 16),
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 14: compaction-pool sweep on the baseline.  One thread
    cannot keep up (L0 write stalls; tails grow with run length — the
    paper reports minutes), a handful is best, and the default 16
    recreates the full ShadowSync contention."""
    summaries = sweep(
        threads,
        lambda n: RunSpec(
            scenario=scenario(
                "baseline_traffic",
                mitigation=MitigationPlan(compaction_threads=n),
            ),
            settings=settings,
            label=f"compaction_threads={n}",
        ),
        jobs=jobs,
    )
    rows = [
        {"compaction_threads": n, **summary.tails}
        for n, summary in zip(threads, summaries)
    ]
    good = [r for r in rows if r["compaction_threads"] > 1]
    best = min(good, key=lambda r: r["p999"])
    return {"rows": rows, "best_compaction_threads": best["compaction_threads"]}


def fig15_kneedle(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 15: infer the compaction allocation from one run.

    50 ms windows of a randomized-trigger run (whose burst sizes vary
    naturally) are binned by observed per-node compaction concurrency;
    Kneedle finds the knee of the latency-vs-concurrency curve.  The
    knee falls at the CPU headroom (16 cores − 12 steady ≈ 4), matching
    Figure 14's brute-force best allocation."""
    long_settings = replace(
        settings, duration_s=max(settings.duration_s, 280.0)
    )
    (summary,) = run_grid(
        [
            RunSpec(
                scenario=scenario(
                    "baseline_traffic",
                    mitigation=MitigationPlan(randomize_compaction_trigger=True),
                ),
                settings=long_settings,
                label="fig15-long-run",
            )
        ],
        jobs=jobs,
    )
    wt = np.array(summary.fine_times)
    wl = np.array(summary.fine_p999)
    ct = np.array(summary.concurrency_times)
    cc = np.array(summary.compaction_concurrency)
    per_node = np.floor(cc / 4.0)
    levels, means = concurrency_latency_curve(wt, wl, ct, per_node, min_windows=5)
    knee = recommend_compaction_threads(levels, means)
    return {
        "levels": levels.tolist(),
        "mean_p999": means.tolist(),
        "recommended_threads": knee,
    }


# ----------------------------------------------------------------------
# §5 — evaluation of the mitigation methods
# ----------------------------------------------------------------------

def _baseline_vs_solution(
    baseline: str,
    settings: ExperimentSettings,
    storage: str = "tmpfs",
    jobs: Optional[int] = None,
) -> Dict:
    specs = [
        RunSpec(
            scenario=scenario(baseline, mitigation=plan, storage=storage),
            settings=settings,
            label=name,
        )
        for name, plan in (
            ("baseline", None),
            ("solution", MitigationPlan.paper_solution()),
        )
    ]
    summaries = run_grid(specs, jobs=jobs)
    out: Dict = {}
    for spec, summary in zip(specs, summaries):
        out[spec.label] = {
            "tails": summary.tails,
            "timeline": (summary.coarse_times, summary.coarse_p999),
            "peak_p999": summary.peak_p999,
            "compaction_concurrency_peak": summary.compaction_concurrency_peak,
            "per_checkpoint_compactions": {
                k: v
                for k, v in sorted(summary.per_checkpoint_compactions.items())
            },
            "overlap": summary.overlap,
        }
    out["reduction_p999"] = reduction_ratio(
        out["baseline"]["tails"]["p999"], out["solution"]["tails"]["p999"]
    )
    out["reduction_p95"] = reduction_ratio(
        out["baseline"]["tails"]["p95"], out["solution"]["tails"]["p95"]
    )
    return out


def fig16_traffic_mitigation(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 16: traffic job, baseline vs §4 solution (randomized
    trigger + 1 s delay).  Spikes above 2 s become sub-second; the
    compaction activity spreads across the 4-checkpoint cycle."""
    return _baseline_vs_solution("baseline_traffic", settings, jobs=jobs)


def fig17_wordcount_tails(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 17: WordCount p99.9 — baseline ≈ 1.3 s vs solution ≈ 0.7 s."""
    return _baseline_vs_solution("baseline_wordcount", settings, jobs=jobs)


def fig18_wordcount_timeline(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 18: WordCount fine-grained timelines and concurrency."""
    return _baseline_vs_solution("baseline_wordcount", settings, jobs=jobs)


def fig19_traffic_nvme(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 19: traffic on NVMe — mitigations remain effective when
    flush/compaction pay real I/O costs."""
    return _baseline_vs_solution("baseline_traffic", settings, storage="nvme", jobs=jobs)


def fig20_wordcount_nvme(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict:
    """Figure 20: WordCount on NVMe — baseline degrades vs tmpfs and
    the mitigations still remove the ShadowSync spikes."""
    out = _baseline_vs_solution("baseline_wordcount", settings, storage="nvme", jobs=jobs)
    # the figure's claim is a comparison against Figure 17's baseline
    tmpfs = fig17_wordcount_tails(settings, jobs)
    out["tmpfs_baseline_p999"] = tmpfs["baseline"]["tails"]["p999"]
    return out


def headline_reduction(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict:
    """§5 headline: mitigated p99.9 ≲ 20–25 % and p95 < 50 % of the
    baseline (with all three §4 techniques enabled)."""
    baseline, full = run_grid(
        [
            RunSpec(
                scenario="baseline_traffic", settings=settings, label="baseline"
            ),
            RunSpec(
                scenario=scenario(
                    "baseline_traffic", mitigation=MitigationPlan.full()
                ),
                settings=settings,
                label="mitigated",
            ),
        ],
        jobs=jobs,
    )
    b, f = baseline.tails, full.tails
    return {
        "baseline": b,
        "mitigated": f,
        "reduction_p999": reduction_ratio(b["p999"], f["p999"]),
        "reduction_p95": reduction_ratio(b["p95"], f["p95"]),
    }


# ----------------------------------------------------------------------
# ablations (DESIGN.md §6) — not in the paper; claim-only ids
# ----------------------------------------------------------------------

def _traffic_p999(plans: Dict, settings: ExperimentSettings, jobs) -> Dict:
    """Whole-run p99.9 of ``baseline_traffic`` under each plan of *plans*."""
    summaries = sweep(
        list(plans),
        lambda name: RunSpec(
            scenario=scenario("baseline_traffic", mitigation=plans[name]),
            settings=settings,
            label=str(name),
        ),
        jobs=jobs,
    )
    return {name: summary.tails["p999"] for name, summary in zip(plans, summaries)}


def ablation_mitigations(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict:
    """Ablations A and B: decompose the §4.1 solution into its two
    techniques (the paper only evaluates the combination), and vary the
    randomized trigger's α spread around the paper's choice of the
    4-checkpoint cycle length."""
    techniques = {
        "baseline": MitigationPlan.baseline(),
        "random-only": MitigationPlan(randomize_compaction_trigger=True),
        "delay-only": MitigationPlan(compaction_delay_s=1.0),
        "both": MitigationPlan.paper_solution(),
    }
    spreads = {
        spread: MitigationPlan(
            randomize_compaction_trigger=True,
            trigger_spread=spread,
            compaction_delay_s=1.0,
        )
        for spread in (1, 2, 4, 8)
    }
    return {
        "p999": _traffic_p999(techniques, settings, jobs),
        "spread_p999": _traffic_p999(spreads, settings, jobs),
    }


def _live_traffic(settings: ExperimentSettings, plan=None, cost=None, prepare=None):
    """One live ``baseline_traffic`` deployment; *prepare* hooks the
    built job before it runs."""
    job = build_traffic_job(
        checkpoint_interval_s=8.0, initial_l0="aligned", seed=settings.seed,
        mitigation=plan, cost=cost,
    )
    if prepare is not None:
        prepare(job)
    return job.run(settings.duration_s)


def _gc_pauses(job, interval_s=17.3, pause_s=0.35, jitter=0.3, first_at_s=5.0):
    """Periodic stop-the-world GC pauses on every node of *job*."""
    sim = job.sim

    def loop(node):
        rng = sim.rng.stream(f"gc/{node.name}")
        yield first_at_s
        while True:
            spawn(sim, capacity_dip(sim, node.cpu, 0.0, pause_s))
            wait = interval_s * (1.0 + jitter * (2.0 * rng.random() - 1.0))
            yield max(wait, pause_s)

    for node in job.nodes:
        spawn(sim, loop(node), name=f"gc-injector-{node.name}")


def ablation_gc_pauses(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Dict:
    """Ablation C: other ShadowSync sources (§6, the paper's future
    work).  Periodic stop-the-world pauses injected into the *mitigated*
    traffic job create a tail the LSM mitigations do not address."""
    plan = MitigationPlan.paper_solution()
    quiet = _live_traffic(settings, plan)
    paused = _live_traffic(settings, plan, prepare=_gc_pauses)
    return {
        "quiet": quiet.tail_summary(start=settings.warmup_s),
        "with_gc": paused.tail_summary(start=settings.warmup_s),
    }


def _submit_concentration(result) -> float:
    """Largest share of compactions *scheduled* in a single checkpoint.

    Bucketed by submission time: SILK's small pool queues the jobs, so
    execution smears — but the trigger synchronization (ShadowSync's
    root) is visible in when they were scheduled."""
    counts = result.spans.per_cycle_counts(
        result.coordinator.checkpoint_times(), kind="compaction", by="submit"
    )
    total = sum(counts.values())
    return max(counts.values()) / total if total else 0.0


def ablation_silk(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Dict:
    """Ablation D: a SILK-style I/O scheduler vs the paper's
    desynchronization (§7).  SILK (flush priority + throttled compaction
    pool) reduces burst *intensity*, but the bursts stay synchronized on
    every 4th checkpoint, and under a compaction-heavier cost model the
    throttled pool falls behind while the full-pool solution does not."""
    silk = SilkPolicy()
    heavy = CostModel(compaction_cpu_seconds_per_mb=0.7)

    def pauses(job):
        install_silk_pauses(job, silk)

    def p999(result):
        return result.tail_summary(start=settings.warmup_s)["p999"]

    base = _live_traffic(settings)
    throttled = _live_traffic(settings, silk.as_mitigation_plan(), prepare=pauses)
    solution = _live_traffic(settings, MitigationPlan.paper_solution())
    heavy_silk = _live_traffic(
        settings, silk.as_mitigation_plan(), cost=heavy, prepare=pauses
    )
    heavy_solution = _live_traffic(
        settings, MitigationPlan.paper_solution(), cost=heavy
    )
    return {
        "p999": {
            "baseline": p999(base),
            "silk": p999(throttled),
            "solution": p999(solution),
        },
        "concentration": {
            "silk": _submit_concentration(throttled),
            "solution": _submit_concentration(solution),
        },
        "heavy_p999": {"silk": p999(heavy_silk), "solution": p999(heavy_solution)},
        "heavy_write_stalls": {
            "silk": heavy_silk.job.backend.write_stall_events,
            "solution": heavy_solution.job.backend.write_stall_events,
        },
    }


def ablation_checkpoint_mode(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> Dict:
    """Ablation E: incremental vs full-snapshot checkpoints.  A
    full-snapshot backend serializes the whole keyed state every
    checkpoint — the cost incremental backup (§1, [8]) exists to avoid —
    yet ShadowSync exists even with incremental checkpoints."""
    out: Dict = {"p999": {}, "checkpoint_gb": {}}
    for mode, incremental in (("incremental", True), ("full", False)):
        result = StreamJob(
            stages=[
                StageSpec("s0", parallelism=64, state_entry_bytes=1000.0,
                          distinct_keys=60000, selectivity=1.0),
                StageSpec("s1", parallelism=64, state_entry_bytes=2500.0,
                          distinct_keys=10000, selectivity=0.01),
            ],
            source=ConstantSource(60000.0),
            cluster=ClusterConfig(num_nodes=4, cores_per_node=16),
            checkpoint=CheckpointConfig(interval_s=8.0, first_at_s=8.0,
                                        incremental=incremental),
            seed=settings.seed,
        ).run(settings.duration_s)
        out["p999"][mode] = result.tail_summary(start=settings.warmup_s)["p999"]
        out["checkpoint_gb"][mode] = (
            sum(record.bytes for record in result.coordinator.completed) / 1e9
        )
    return out


#: CLI name -> experiment function: the ids ``repro run`` / ``trace`` /
#: ``profile`` accept and the claims table resolves its rows through.
EXPERIMENTS: Dict[str, Callable] = {
    "fig1": fig1_fig3_baseline_timeline,
    "fig3": fig1_fig3_baseline_timeline,
    "table1": table1_checkpoint_stats,
    "fig6": fig6_point_in_time,
    "fig7": fig7_zoom_spans,
    "fig8": fig8_statistical,
    "fig12": fig12_delay_sweep,
    "fig13": fig13_flush_thread_sweep,
    "fig14": fig14_compaction_thread_sweep,
    "fig15": fig15_kneedle,
    "fig16": fig16_traffic_mitigation,
    "fig17": fig17_wordcount_tails,
    "fig18": fig18_wordcount_timeline,
    "fig19": fig19_traffic_nvme,
    "fig20": fig20_wordcount_nvme,
    "headline": headline_reduction,
}


def takes_jobs(experiment: Callable) -> bool:
    """Whether *experiment* runs through the sweep executor."""
    return "jobs" in inspect.signature(experiment).parameters


#: Claim-only ids: ``repro paper`` evaluates them, ``repro run`` does
#: not offer them.
ABLATIONS: Dict[str, Callable] = {
    "ablation_mitigations": ablation_mitigations,
    "ablation_gc": ablation_gc_pauses,
    "ablation_silk": ablation_silk,
    "ablation_checkpoint": ablation_checkpoint_mode,
}

"""The paper's evaluation as one table: a figure is a row.

Each :class:`Figure` row declares the runs an experiment needs — its
``variants``, overrides of its exemplar ``scenario`` — and a ``reduce``
that turns them into a plain dict of the series/rows the paper plots,
plus the derived quantities the reproduction is judged on (spike
period, knee position, reduction ratios).  :func:`run_figures` makes
every distinct run of the selected rows once and reduces each row once;
``repro run`` and the claims table (:mod:`repro.experiments.claims`,
``repro paper``) both call it.  Rows whose runs cannot be declared
(Figure 15's long run, the live Ablations C, D and E) declare no
variants and make their runs inside ``reduce``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from ..analysis.longtail import find_spikes, reduction_ratio, spike_period
from ..analysis.millibottleneck import analyze_result, default_threshold
from ..analysis.overlap import burst_alignment
from ..config import CheckpointConfig, ClusterConfig, CostModel
from ..core.allocation import (
    concurrency_latency_curve,
    recommend_compaction_threads,
)
from ..core.mitigation import MitigationPlan
from ..core.silk import SilkPolicy, install_silk_pauses
from ..errors import AnalysisError
from ..faults.capacity import capacity_dip
from ..scenarios.library import scenario
from ..scenarios.run import build_scenario_job, run_scenario
from ..scenarios.spec import ScenarioSpec
from ..sim.process import spawn
from ..stream import ConstantSource, StageSpec, StreamJob
from .parallel import RunSpec, run_grid, spec_cache_key
from .runner import DEFAULT_SETTINGS, ExperimentSettings

__all__ = ["Figure", "EXPERIMENTS", "ABLATIONS", "FIGURES", "run_figures"]

BASELINE = scenario("baseline_traffic")

#: §3.2's scheduled-ShadowSync deployment: 16 s checkpoints with the
#: stages' L0 counters out of phase (Figures 1, 3, 6, 7 and Table 1).
SCHEDULED = scenario(
    "baseline_traffic",
    name="scheduled_traffic",
    interval_s=16.0,
    initial_l0="staggered",
)

#: The variants of a row that reads its exemplar run alone.
ONE_RUN = (("run", {}),)


@dataclass(frozen=True, eq=False)
class Figure:
    """One row: an experiment's runs and the reducer that reads them.

    Rows compare by identity, so an alias id (``fig3``) names the same
    row object and is reduced once.
    """

    #: what the row shows; ``repro list`` prints its first line
    doc: str
    #: ``(run by variant label, settings) -> figure dict``
    reduce: Callable[[Dict[str, Any], ExperimentSettings], Dict]
    #: the exemplar ``repro trace`` and ``repro run --faults`` run; each
    #: variant overrides fields of it
    scenario: ScenarioSpec = BASELINE
    #: ``(label, ScenarioSpec overrides)`` pairs, one run each
    variants: Tuple[Tuple[str, dict], ...] = ()
    #: ``reduce`` reads the live ``StreamJobResult`` (CPU, queues,
    #: spans), which a cached ``RunSummary`` does not carry
    live: bool = False

    def specs(self, settings: ExperimentSettings) -> Dict[str, RunSpec]:
        """The declared runs under *settings*, by variant label."""
        return {
            label: RunSpec(
                scenario=replace(self.scenario, **overrides),
                settings=settings,
                label=label,
            )
            for label, overrides in self.variants
        }


def run_figures(
    ids: Iterable[str],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    jobs: Optional[int] = None,
) -> Dict[str, Dict]:
    """Each selected figure's dict, by id.

    One :func:`run_grid` call makes the distinct declared runs of the
    summary rows (*jobs* fans it over worker processes), one
    :func:`run_scenario` per distinct live run follows, then each
    selected row is reduced once.
    """
    ids = list(ids)
    rows = {FIGURES[name]: FIGURES[name].specs(settings) for name in ids}
    grid: Dict[str, RunSpec] = {}
    live: Dict[str, RunSpec] = {}
    for row, specs in rows.items():
        for spec in specs.values():
            (live if row.live else grid).setdefault(spec_cache_key(spec), spec)
    summaries = dict(zip(grid, run_grid(list(grid.values()), jobs=jobs)))
    results = {
        key: run_scenario(spec.scenario, settings=settings)
        for key, spec in live.items()
    }
    outs = {}
    for row, specs in rows.items():
        made = results if row.live else summaries
        runs = {label: made[spec_cache_key(spec)] for label, spec in specs.items()}
        outs[row] = row.reduce(runs, settings)
    return {name: outs[FIGURES[name]] for name in ids}


def _timeline(result, settings: ExperimentSettings):
    start, end = settings.measure_span
    return result.latency_timeline(
        0.999, window=settings.coarse_window_s, start=start, end=end
    )


def _verdict(result, settings: ExperimentSettings) -> Dict:
    """The millibottleneck detector's reading of the measured span."""
    report = analyze_result(result, start=settings.warmup_s)
    return {
        "verdict": report.classification,
        "attributed_spikes": report.attributed_count,
        "detected_spikes": report.spike_count,
    }


def _is_burst(row) -> bool:
    return sum(row.compaction_count.values()) >= 32


# ----------------------------------------------------------------------
# §2 + §3 — one exemplar run each (live: CPU, queues, spans)
# ----------------------------------------------------------------------

def _baseline_timeline(runs, settings: ExperimentSettings) -> Dict:
    result = runs["run"]
    times, p999 = _timeline(result, settings)
    spikes = find_spikes(times, p999, threshold=default_threshold(p999))
    return {
        "times": times.tolist(),
        "p999": p999.tolist(),
        "floor_s": float(np.median(p999)),
        "spikes": [(s.peak_time, s.peak) for s in spikes],
        "spike_period_s": spike_period(spikes),
        "tails": result.tail_summary(start=settings.warmup_s),
        **_verdict(result, settings),
    }


def _checkpoint_stats(runs, settings: ExperimentSettings) -> Dict:
    stats = runs["run"].checkpoint_stats()
    after_warmup = [s for s in stats if s.time >= settings.warmup_s]
    # Align the 5-checkpoint window on a burst checkpoint, as the paper
    # does (its window starts at a synchronization point, 152 s).
    start = next((i for i, row in enumerate(after_warmup) if _is_burst(row)), 0)
    selected = after_warmup[start : start + 5]
    return {
        "rows": [s.to_dict() for s in selected],
        "stages": ["s0", "s1"],
    }


def _point_in_time(runs, settings: ExperimentSettings) -> Dict:
    result = runs["run"]
    start, end = settings.measure_span
    cpu = result.cpu_series("node0")
    cpu_t, cpu_v = cpu.on_grid(start, end, 0.05)
    q_t, q0 = result.queue_series("s0", start, end)
    _, q1 = result.queue_series("s1", start, end)
    f_t, flush_c = result.concurrency("flush", start, end)
    _, comp_c = result.concurrency("compaction", start, end)
    times, p999 = _timeline(result, settings)
    spikes = find_spikes(times, p999, threshold=default_threshold(p999))
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


def _zoom_spans(runs, settings: ExperimentSettings) -> Dict:
    result = runs["run"]
    burst_cp = next(
        (
            row
            for row in result.checkpoint_stats()
            if row.time >= settings.warmup_s and _is_burst(row)
        ),
        None,
    )
    if burst_cp is None:
        raise AnalysisError(
            f"no compaction burst found after the {settings.warmup_s:g} s "
            f"warmup of a {settings.duration_s:g} s run; run longer"
        )
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


def _statistical(runs, settings: ExperimentSettings) -> Dict:
    result = runs["run"]
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
        **_verdict(result, settings),
    }


# ----------------------------------------------------------------------
# §4 — mitigation parameter studies
# ----------------------------------------------------------------------

#: Figure 12's standard 6-point compaction-delay grid (seconds).
DELAY_SWEEP_S = (0.1, 0.5, 1.0, 3.0, 6.0, 8.0)


def _sweep(
    doc: str,
    column: str,
    points: tuple,
    plan: Callable[[Any], MitigationPlan],
    skip: tuple = (),
) -> Figure:
    """A row sweeping one knob of ``baseline_traffic``: one variant per
    point under ``plan(point)``, a row of tails per point, and the point
    with the lowest p99.9 (points in *skip* excluded)."""

    def reduce(runs, settings: ExperimentSettings) -> Dict:
        rows = [{column: point, **runs[str(point)].tails} for point in points]
        best = min(
            (row for row in rows if row[column] not in skip),
            key=lambda row: row["p999"],
        )
        return {"rows": rows, f"best_{column}": best[column]}

    variants = tuple((str(point), {"mitigation": plan(point)}) for point in points)
    return Figure(doc=doc, reduce=reduce, variants=variants)


def _kneedle(_runs, settings: ExperimentSettings) -> Dict:
    long_settings = replace(
        settings, duration_s=max(settings.duration_s, 280.0)
    )
    (summary,) = run_grid([
        RunSpec(
            scenario=scenario(
                "baseline_traffic",
                mitigation=MitigationPlan(randomize_compaction_trigger=True),
            ),
            settings=long_settings,
            label="fig15-long-run",
        )
    ])
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

#: Baseline vs the §4 solution (randomized trigger + 1 s delay).
VERSUS = (
    ("baseline", {}),
    ("solution", {"mitigation": MitigationPlan.paper_solution()}),
)


def _versus(runs, settings: ExperimentSettings) -> Dict:
    """The two sides of :data:`VERSUS`; each further variant adds its
    p99.9 as ``<label>_p999``."""
    out: Dict = {}
    for label in ("baseline", "solution"):
        summary = runs[label]
        out[label] = {
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
    for label in list(runs)[len(VERSUS):]:
        out[f"{label}_p999"] = runs[label].tails["p999"]
    return out


def _headline(runs, settings: ExperimentSettings) -> Dict:
    b, f = runs["baseline"].tails, runs["mitigated"].tails
    return {
        "baseline": b,
        "mitigated": f,
        "reduction_p999": reduction_ratio(b["p999"], f["p999"]),
        "reduction_p95": reduction_ratio(b["p95"], f["p95"]),
    }


# ----------------------------------------------------------------------
# ablations (DESIGN.md §6) — not in the paper; claim-only ids
# ----------------------------------------------------------------------

#: Ablation A: the §4.1 solution decomposed into its two techniques.
TECHNIQUES = {
    "baseline": MitigationPlan.baseline(),
    "random-only": MitigationPlan(randomize_compaction_trigger=True),
    "delay-only": MitigationPlan(compaction_delay_s=1.0),
    "both": MitigationPlan.paper_solution(),
}
#: Ablation B: the randomized trigger's α spread, in checkpoints.
SPREADS = (1, 2, 4, 8)


def _mitigations(runs, settings: ExperimentSettings) -> Dict:
    p999 = {label: summary.tails["p999"] for label, summary in runs.items()}
    return {
        "p999": {name: p999[name] for name in TECHNIQUES},
        "spread_p999": {spread: p999[f"spread={spread}"] for spread in SPREADS},
    }


def _live_traffic(settings: ExperimentSettings, plan=None, cost=None, prepare=None):
    """One live ``baseline_traffic`` deployment; *prepare* hooks the
    built job before it runs."""
    job = build_scenario_job(
        scenario("baseline_traffic", mitigation=plan), seed=settings.seed, cost=cost
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


def _gc(_runs, settings: ExperimentSettings) -> Dict:
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


def _silk(_runs, settings: ExperimentSettings) -> Dict:
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


def _checkpoint_mode(_runs, settings: ExperimentSettings) -> Dict:
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


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

_FIG1 = Figure(
    doc="""Figures 1 and 3: periodic latency spikes on the baseline.

    16 s checkpoints with stage counters out of phase (§3.2's observed
    condition): each stage's compaction burst recurs every 64 s, the
    two stages alternate, so spikes arrive every ~32 s — the LCM
    cadence of Figure 1.
    """,
    reduce=_baseline_timeline, scenario=SCHEDULED, variants=ONE_RUN, live=True,
)

_FIG17 = Figure(
    doc="Figure 17: WordCount p99.9 — baseline ≈ 1.3 s vs solution ≈ 0.7 s.",
    reduce=_versus, scenario=scenario("baseline_wordcount"), variants=VERSUS,
)

#: CLI name -> row: the ids ``repro run`` / ``trace`` accept and the
#: claims table resolves its rows through.
EXPERIMENTS: Dict[str, Figure] = {
    "fig1": _FIG1,
    "fig3": _FIG1,
    "table1": Figure(
        doc="""Table 1: per-checkpoint flush/compaction statistics.

        Five consecutive checkpoints after warmup; compaction bursts of 64
        hit alternating stages (s1 at the 1st and 5th, s0 in between),
        matching the staggered scheduled pattern.
        """,
        reduce=_checkpoint_stats, scenario=SCHEDULED, variants=ONE_RUN, live=True,
    ),
    "fig6": Figure(
        doc="Figure 6: CPU, queues and activity concurrency around the spikes.",
        reduce=_point_in_time, scenario=SCHEDULED, variants=ONE_RUN, live=True,
    ),
    "fig7": Figure(
        doc="""Figure 7: individual flush/compaction spans in one burst window.

        Flushes are short and numerous; the compaction burst's spans last
        much longer because 64 jobs share 16 compaction threads per node
        while contending with message processing.
        """,
        reduce=_zoom_spans, scenario=SCHEDULED, variants=ONE_RUN, live=True,
    ),
    "fig8": Figure(
        doc="""Figure 8: aligned counters put both stages' bursts in the same
        checkpoint → even higher spikes (> 2 s) in a 32 s cycle.""",
        reduce=_statistical, variants=ONE_RUN, live=True,
    ),
    "fig12": _sweep(
        """Figure 12: compaction delay sweep (on top of the randomized
        trigger, §4.1's combined setting).  Best around the ~1 s drain
        time; a delay near the checkpoint interval wraps into the next
        flush and regresses.""",
        "delay_s", DELAY_SWEEP_S,
        lambda delay: MitigationPlan(
            randomize_compaction_trigger=True, compaction_delay_s=delay
        ),
    ),
    "fig13": _sweep(
        """Figure 13: flush-pool sweep with §4.1 mitigations active so the
        flush effect is not drowned by compaction spikes.  Severe
        under-allocation is catastrophic; ≈ cores is best; 4× cores pays
        lock-contention overhead.""",
        "flush_threads", (1, 2, 4, 8, 16, 32, 64),
        lambda n: MitigationPlan(
            randomize_compaction_trigger=True,
            compaction_delay_s=1.0,
            flush_threads=n,
        ),
    ),
    "fig14": _sweep(
        """Figure 14: compaction-pool sweep on the baseline.  One thread
        cannot keep up (L0 write stalls; tails grow with run length — the
        paper reports minutes), a handful is best, and the default 16
        recreates the full ShadowSync contention.""",
        "compaction_threads", (1, 2, 4, 8, 16),
        lambda n: MitigationPlan(compaction_threads=n),
        skip=(1,),
    ),
    "fig15": Figure(
        doc="""Figure 15: infer the compaction allocation from one run.

        50 ms windows of a randomized-trigger run (whose burst sizes vary
        naturally) are binned by observed per-node compaction concurrency;
        Kneedle finds the knee of the latency-vs-concurrency curve.  The
        knee falls at the CPU headroom (16 cores − 12 steady ≈ 4), matching
        Figure 14's brute-force best allocation.""",
        reduce=_kneedle,
    ),
    "fig16": Figure(
        doc="""Figure 16: traffic job, baseline vs §4 solution (randomized
        trigger + 1 s delay).  Spikes above 2 s become sub-second; the
        compaction activity spreads across the 4-checkpoint cycle.""",
        reduce=_versus, variants=VERSUS,
    ),
    "fig17": _FIG17,
    "fig18": replace(
        _FIG17, doc="Figure 18: WordCount fine-grained timelines and concurrency."
    ),
    "fig19": Figure(
        doc="""Figure 19: traffic on NVMe — mitigations remain effective when
        flush/compaction pay real I/O costs.""",
        reduce=_versus, scenario=scenario("baseline_traffic", storage="nvme"),
        variants=VERSUS,
    ),
    "fig20": Figure(
        doc="""Figure 20: WordCount on NVMe — baseline degrades vs tmpfs and
        the mitigations still remove the ShadowSync spikes.""",
        reduce=_versus, scenario=scenario("baseline_wordcount", storage="nvme"),
        # the figure's claim is a comparison against Figure 17's baseline
        variants=(*VERSUS, ("tmpfs_baseline", {"storage": "tmpfs"})),
    ),
    "headline": Figure(
        doc="""§5 headline: mitigated p99.9 ≲ 20–25 % and p95 < 50 % of the
        baseline (with all three §4 techniques enabled).""",
        reduce=_headline,
        variants=(
            ("baseline", {}),
            ("mitigated", {"mitigation": MitigationPlan.full()}),
        ),
    ),
}

#: Claim-only ids: ``repro paper`` evaluates them, ``repro run`` does
#: not offer them.
ABLATIONS: Dict[str, Figure] = {
    "ablation_mitigations": Figure(
        doc="""Ablations A and B: decompose the §4.1 solution into its two
        techniques (the paper only evaluates the combination), and vary the
        randomized trigger's α spread around the paper's choice of the
        4-checkpoint cycle length.""",
        reduce=_mitigations,
        variants=(
            *((name, {"mitigation": plan}) for name, plan in TECHNIQUES.items()),
            *(
                (f"spread={spread}", {"mitigation": MitigationPlan(
                    randomize_compaction_trigger=True,
                    trigger_spread=spread,
                    compaction_delay_s=1.0,
                )})
                for spread in SPREADS
            ),
        ),
    ),
    "ablation_gc": Figure(
        doc="""Ablation C: other ShadowSync sources (§6, the paper's future
        work).  Periodic stop-the-world pauses injected into the *mitigated*
        traffic job create a tail the LSM mitigations do not address.""",
        reduce=_gc,
    ),
    "ablation_silk": Figure(
        doc="""Ablation D: a SILK-style I/O scheduler vs the paper's
        desynchronization (§7).  SILK (flush priority + throttled compaction
        pool) reduces burst *intensity*, but the bursts stay synchronized on
        every 4th checkpoint, and under a compaction-heavier cost model the
        throttled pool falls behind while the full-pool solution does not.""",
        reduce=_silk,
    ),
    "ablation_checkpoint": Figure(
        doc="""Ablation E: incremental vs full-snapshot checkpoints.  A
        full-snapshot backend serializes the whole keyed state every
        checkpoint — the cost incremental backup (§1, [8]) exists to avoid —
        yet ShadowSync exists even with incremental checkpoints.""",
        reduce=_checkpoint_mode,
    ),
}

#: Every row by id: what ``repro run`` accepts plus the ablations.
FIGURES: Dict[str, Figure] = {**EXPERIMENTS, **ABLATIONS}

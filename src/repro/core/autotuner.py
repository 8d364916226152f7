"""Auto-tuning: offline joint-space search.

:func:`tune` searches the joint mitigation space — randomized-threshold
spread α × compaction delay T × pool sizes × compaction/scheduling
policy (the mitigation zoo of :mod:`repro.lsm.policies`) — through the
parallel executor and result cache, runs Kneedle knee detection on the
p99.9-vs-threads curve, and emits a serializable :class:`TunedConfig`
artifact plus the headline table (``repro tune`` on the command line).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

from .mitigation import MitigationPlan

__all__ = ["TunedConfig", "TuneReport", "tune"]


@dataclass
class TunedConfig:
    """The artifact :func:`tune` emits: the winning configuration.

    ``mitigation`` is the plain-dict form of the winning
    :class:`~repro.core.mitigation.MitigationPlan` — feed it back with
    :meth:`plan`.
    """

    scenario: str = "baseline_traffic"
    label: str = ""
    policy: str = "reference"
    mitigation: Dict = field(default_factory=dict)
    p50: float = 0.0
    p99: float = 0.0
    p999: float = 0.0
    peak_p999: float = 0.0
    baseline_p999: float = 0.0
    paper_p999: float = 0.0
    #: Fractional p99.9 improvement over the paper's combined
    #: mitigation (positive = the learned config is better).
    improvement_vs_paper: float = 0.0
    #: Kneedle knee of the winner-policy p99.9-vs-compaction-threads
    #: curve (``None`` when the curve has no knee or too few points).
    knee_compaction_threads: Optional[float] = None
    seed: int = 1
    duration_s: float = 0.0
    warmup_s: float = 0.0
    version: str = ""

    def plan(self) -> MitigationPlan:
        """The winning plan, ready to run."""
        return MitigationPlan.from_dict(self.mitigation)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TuneReport:
    """Everything one :func:`tune` invocation measured."""

    scenario: str = "baseline_traffic"
    smoke: bool = False
    seed: int = 1
    duration_s: float = 0.0
    warmup_s: float = 0.0
    best: TunedConfig = field(default_factory=TunedConfig)
    #: One row per evaluated configuration (label, policy, pools,
    #: delay, spread, tail percentiles), in evaluation order.
    rows: List[Dict] = field(default_factory=list)
    version: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TuneReport":
        data = dict(data)
        best = data.get("best")
        if isinstance(best, dict):
            data["best"] = TunedConfig(**best)
        names = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in data.items() if k in names})

    # ------------------------------------------------------------------

    def render(self, top: Optional[int] = None) -> str:
        """The headline table, ranked best-first."""
        header = (
            f"Mitigation-zoo tune — scenario={self.scenario} "
            f"seed={self.seed} ({self.duration_s:g}s, "
            f"warmup {self.warmup_s:g}s"
            + (", smoke grid" if self.smoke else "")
            + ")"
        )
        lines = [header, ""]
        lines.append(
            f"{'config':<34} {'policy':<14} {'pools':>7} {'delay':>6} "
            f"{'spread':>6} {'p99.9 ms':>9} {'peak ms':>8}"
        )
        ranked = sorted(self.rows, key=lambda r: (r["p999"], r["label"]))
        if top is not None:
            ranked = ranked[:top]
        for row in ranked:
            marker = "*" if row["label"] == self.best.label else " "
            pools = f"{row['flush_threads']}/{row['compaction_threads']}"
            lines.append(
                f"{marker}{row['label']:<33} {row['policy']:<14} "
                f"{pools:>7} {row['delay_s']:>6g} {row['spread']:>6d} "
                f"{row['p999'] * 1e3:>9.2f} {row['peak_p999'] * 1e3:>8.2f}"
            )
        best = self.best
        lines.append("")
        lines.append(
            f"best: {best.label} — p99.9 {best.p999 * 1e3:.2f} ms "
            f"vs paper {best.paper_p999 * 1e3:.2f} ms "
            f"({best.improvement_vs_paper * 100:+.1f}%), "
            f"baseline {best.baseline_p999 * 1e3:.2f} ms"
        )
        if best.knee_compaction_threads is not None:
            lines.append(
                "knee: p99.9-vs-threads flattens at "
                f"~{best.knee_compaction_threads:g} compaction threads "
                f"({best.policy})"
            )
        return "\n".join(lines)


def _tune_grid(policies, pool_grid, delay_grid, spread_grid):
    """The (label, plan) pairs one tune run evaluates."""
    entries = [
        ("baseline", MitigationPlan.baseline()),
        ("paper", MitigationPlan.paper_solution()),
    ]
    for policy in policies:
        for spread in spread_grid:
            for delay in delay_grid:
                for threads in pool_grid:
                    label = f"{policy}/a{spread}/d{delay:g}/c{threads}"
                    entries.append(
                        (
                            label,
                            MitigationPlan(
                                randomize_compaction_trigger=True,
                                trigger_spread=spread,
                                compaction_delay_s=delay,
                                flush_threads=16,
                                compaction_threads=threads,
                                compaction_policy=policy,
                            ),
                        )
                    )
    return entries


def tune(
    scenario: str = "baseline_traffic",
    duration_s: Optional[float] = None,
    warmup_s: Optional[float] = None,
    seed: int = 1,
    policies: Optional[List[str]] = None,
    pool_grid: Optional[List[int]] = None,
    delay_grid: Optional[List[float]] = None,
    spread_grid: Optional[List[int]] = None,
    smoke: bool = False,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_directory=None,
) -> TuneReport:
    """Search the joint mitigation space on a library scenario.

    The grid crosses the mitigation zoo's policies with the paper's
    knobs (threshold spread α, compaction delay T, compaction pool
    size; flushes pinned at cores=16 per §4.2), plus the canned
    ``baseline`` and ``paper`` plans as fixed reference points.  Runs
    go through :func:`repro.experiments.parallel.run_grid`, so repeats
    hit the content-addressed result cache.  ``smoke=True`` shrinks
    both the grid and the run length for CI.

    Deterministic end to end: same arguments, same report.
    """
    # Lazy imports: core must stay importable before the experiment
    # layer (experiments itself imports core.mitigation).
    from ..analysis.kneedle import kneedle
    from ..errors import AnalysisError
    from ..experiments.parallel import RunSpec, run_grid
    from ..experiments.runner import ExperimentSettings
    from ..lsm.policies import policy_names
    from ..scenarios.library import scenario as scenario_by_name
    from .. import __version__

    base_scenario = scenario_by_name(scenario)
    if policies is None:
        policies = policy_names()
    if smoke:
        duration_s = 60.0 if duration_s is None else duration_s
        warmup_s = 20.0 if warmup_s is None else warmup_s
        pool_grid = pool_grid or [4, 16]
        delay_grid = delay_grid or [1.0]
        spread_grid = spread_grid or [4]
    else:
        duration_s = 200.0 if duration_s is None else duration_s
        warmup_s = 40.0 if warmup_s is None else warmup_s
        pool_grid = pool_grid or [2, 4, 8, 16]
        delay_grid = delay_grid or [0.5, 1.0]
        spread_grid = spread_grid or [4]

    settings = ExperimentSettings(
        duration_s=duration_s, warmup_s=warmup_s, seed=seed
    )
    entries = _tune_grid(policies, pool_grid, delay_grid, spread_grid)
    specs = [
        RunSpec(
            scenario=replace(base_scenario, mitigation=plan),
            settings=settings,
            label=label,
        )
        for label, plan in entries
    ]
    summaries = run_grid(
        specs, jobs=jobs, cache=cache, cache_directory=cache_directory
    )

    rows: List[Dict] = []
    for (label, plan), summary in zip(entries, summaries):
        rows.append(
            {
                "label": label,
                "policy": plan.compaction_policy,
                "flush_threads": plan.flush_threads or 16,
                "compaction_threads": plan.compaction_threads or 16,
                "delay_s": plan.compaction_delay_s,
                "spread": plan.trigger_spread,
                "randomize": plan.randomize_compaction_trigger,
                "p50": summary.tails["p50"],
                "p99": summary.tails["p99"],
                "p999": summary.p999,
                "peak_p999": summary.peak_p999,
            }
        )

    by_label = {row["label"]: row for row in rows}
    baseline_p999 = by_label["baseline"]["p999"]
    paper_p999 = by_label["paper"]["p999"]
    # Winner: lowest p99.9 among the searched (non-canned) configs;
    # ties break toward the cheaper pool, then the lexical label, so
    # the choice is deterministic across runs and platforms.
    searched = rows[2:]
    winner = min(
        searched,
        key=lambda r: (
            r["p999"],
            r["flush_threads"] + r["compaction_threads"],
            r["label"],
        ),
    )
    winner_plan = dict(entries)[winner["label"]]

    knee: Optional[float] = None
    curve = sorted(
        (
            (r["compaction_threads"], r["p999"])
            for r in searched
            if r["policy"] == winner["policy"]
            and r["delay_s"] == winner["delay_s"]
            and r["spread"] == winner["spread"]
        )
    )
    if len(curve) >= 3:
        try:
            result = kneedle(
                [float(c) for c, _ in curve],
                [p for _, p in curve],
                curve="convex",
                direction="decreasing",
            )
            knee = result.knee_x
        except AnalysisError:
            knee = None

    best = TunedConfig(
        scenario=scenario,
        label=winner["label"],
        policy=winner["policy"],
        mitigation=asdict(winner_plan),
        p50=winner["p50"],
        p99=winner["p99"],
        p999=winner["p999"],
        peak_p999=winner["peak_p999"],
        baseline_p999=baseline_p999,
        paper_p999=paper_p999,
        improvement_vs_paper=(
            (paper_p999 - winner["p999"]) / paper_p999 if paper_p999 else 0.0
        ),
        knee_compaction_threads=knee,
        seed=seed,
        duration_s=duration_s,
        warmup_s=warmup_s,
        version=__version__,
    )
    return TuneReport(
        scenario=scenario,
        smoke=smoke,
        seed=seed,
        duration_s=duration_s,
        warmup_s=warmup_s,
        best=best,
        rows=rows,
        version=__version__,
    )

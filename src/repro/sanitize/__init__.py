"""Determinism sanitizers: static lint, race detection, order checks.

Three cooperating analyses guard the properties the rest of the tooling
silently depends on (byte-identical cached reruns, seed-driven fault
shrinking, soak audits):

* :mod:`repro.sanitize.lint` — an AST pass over the source tree
  forbidding wall-clock reads, unseeded randomness, unordered
  iteration, mutable defaults and module-level mutable singletons
  (``repro lint`` / :func:`repro.api.lint`);
* :mod:`repro.sanitize.racedetect` — a runtime sanitizer that runs a
  model twice with perturbed same-timestamp tie-breaking and diffs
  windowed state digests; divergence means hidden synchronization
  (``repro sanitize`` / :func:`repro.api.sanitize`);
* :mod:`repro.sanitize.ordering` — cache-key and ``RunSummary``
  insertion-order-independence checks;
* :mod:`repro.sanitize.syncgraph` — the hidden-synchronization
  analyzer: a declared sync-point catalog, project-aware DS2xx lint
  rules over the static call graph, and a trace-grounded shadow-sync
  audit (``repro sync`` / :func:`repro.api.analyze_sync`).

:func:`sanitize_experiment` bundles the runtime pair for one benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .lint import (
    Finding,
    findings_json,
    findings_sarif,
    lint_file,
    lint_paths,
    lint_source,
    render_findings,
)
from .ordering import (
    OrderingCheck,
    OrderingReport,
    check_cache_key_stability,
    check_ordering,
    check_summary_order_independence,
    reorder,
)
from .racedetect import (
    DIGEST_PRIORITY,
    ProbeTarget,
    RaceDivergence,
    RaceProbe,
    RaceReport,
    detect_races,
    diff_probes,
    digest_hash,
    experiment_factory,
    job_probe_target,
    run_probe,
    state_digest,
)
from .rules import RULES, Rule, RuleContext, rule
from .syncgraph import (
    SYNC_CATALOG,
    SyncAuditReport,
    SyncEdge,
    SyncPrimitive,
    analyze_sync,
    build_project,
    diff_against_catalog,
    extract_wait_graph,
)

__all__ = [
    # lint
    "Finding",
    "lint_paths",
    "lint_file",
    "lint_source",
    "render_findings",
    "findings_json",
    "findings_sarif",
    "RULES",
    "Rule",
    "RuleContext",
    "rule",
    # hidden-synchronization analyzer
    "SYNC_CATALOG",
    "SyncPrimitive",
    "SyncEdge",
    "SyncAuditReport",
    "analyze_sync",
    "build_project",
    "extract_wait_graph",
    "diff_against_catalog",
    # race detection
    "RaceReport",
    "RaceDivergence",
    "RaceProbe",
    "ProbeTarget",
    "DIGEST_PRIORITY",
    "detect_races",
    "run_probe",
    "diff_probes",
    "state_digest",
    "digest_hash",
    "job_probe_target",
    "experiment_factory",
    # ordering
    "OrderingCheck",
    "OrderingReport",
    "check_ordering",
    "check_cache_key_stability",
    "check_summary_order_independence",
    "reorder",
    # orchestration
    "SanitizeReport",
    "sanitize_experiment",
]


@dataclass
class SanitizeReport:
    """Combined runtime-sanitizer verdict for one benchmark run."""

    kind: str = "wordcount"
    duration_s: float = 0.0
    window_s: float = 0.0
    seed: int = 1
    race: Optional[RaceReport] = None
    ordering: Optional[OrderingReport] = None

    @property
    def ok(self) -> bool:
        return (self.race is None or self.race.ok) and (
            self.ordering is None or self.ordering.ok
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "duration_s": self.duration_s,
            "window_s": self.window_s,
            "seed": self.seed,
            "ok": self.ok,
            "race": None if self.race is None else self.race.to_dict(),
            "ordering": (
                None if self.ordering is None else self.ordering.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> SanitizeReport:
        race = data.get("race")
        ordering = data.get("ordering")
        return cls(
            kind=data.get("kind", "wordcount"),
            duration_s=data.get("duration_s", 0.0),
            window_s=data.get("window_s", 0.0),
            seed=data.get("seed", 1),
            race=None if race is None else RaceReport.from_dict(race),
            ordering=(
                None if ordering is None else OrderingReport.from_dict(ordering)
            ),
        )

    def render(self) -> str:
        lines = [
            f"== sanitize: {self.kind}, {self.duration_s:g}s, "
            f"seed {self.seed} =="
        ]
        if self.race is not None:
            lines.append(self.race.render())
        if self.ordering is not None:
            lines.append(self.ordering.render())
        lines.append("sanitize: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def sanitize_experiment(
    kind="baseline_wordcount",
    duration_s: float = 24.0,
    window_s: float = 2.0,
    seed: int = 1,
    perturbations: int = 8,
) -> SanitizeReport:
    """Run the race detector and ordering checks on one scenario.

    *kind* is a library scenario name (or the ``traffic``/``wordcount``
    aliases), a :class:`~repro.scenarios.spec.ScenarioSpec` or its dict
    form.  Executes it twice (FIFO vs LIFO tie-breaking) with windowed
    state digests, then checks the baseline run's summary and spec for
    insertion-order independence.  Cache-free by construction: both
    runs execute live, so a poisoned cache cannot mask a race.
    """
    from ..experiments.parallel import RunSpec
    from ..experiments.runner import ExperimentSettings
    from ..experiments.summary import summarize_run

    settings = ExperimentSettings(
        duration_s=duration_s, warmup_s=min(8.0, duration_s / 2), seed=seed
    )
    spec = RunSpec(scenario=kind, settings=settings)
    app = spec.scenario.app
    factory = experiment_factory(spec.scenario, seed=seed)
    baseline = run_probe(factory, duration_s, window_s, "fifo")
    perturbed = run_probe(factory, duration_s, window_s, "lifo")
    race = diff_probes(
        baseline,
        perturbed,
        label=app,
        duration_s=duration_s,
    )
    summary = summarize_run(
        baseline.result,
        settings,
        kind="scenario",
        label=f"sanitize:{app}",
        scenario=spec.scenario.name,
    )
    ordering = check_ordering(spec, summary, perturbations=perturbations)
    return SanitizeReport(
        kind=app,
        duration_s=duration_s,
        window_s=window_s,
        seed=seed,
        race=race,
        ordering=ordering,
    )

"""Command-line interface: regenerate any paper experiment.

Usage::

    python -m repro list
    python -m repro run fig8 [--duration 200] [--seed 1]
    python -m repro run fig12 --jobs 8     # fan the sweep across cores
    python -m repro run table1
    python -m repro run headline --trace   # record traces alongside
    python -m repro scenarios list         # the named scenario library
    python -m repro scenarios show windowed_join
    python -m repro run --scenario diurnal_flash [--faults crash]
    python -m repro trace fig8             # trace + millibottleneck report
    python -m repro trace fig8 --chrome    # Perfetto-loadable trace file
    python -m repro soak                   # chaos-soak over the library
    python -m repro soak --kind windowed_join --seeds 1 2 3 --random
    python -m repro soak --random --cluster  # node crash/flap/partition mix
    python -m repro cluster show           # elastic_scale's ClusterSpec
    python -m repro cluster run            # elastic run + ownership audit
    python -m repro compare                # baseline vs solution summary
    python -m repro cache info             # inspect the result cache
    python -m repro cache clear
    python -m repro profile fig8           # dispatch histogram + cProfile
    python -m repro lint src/repro         # determinism lint (exit 1 on findings)
    python -m repro sanitize --duration 24 # race + ordering sanitizers

The output is plain text (tables and ASCII timelines); experiment
functions are resolved from :mod:`repro.experiments.figures`.  Sweep
experiments accept ``--jobs N`` to run their independent simulations on
``N`` worker processes, and all of them reuse the content-addressed
result cache under ``.repro-cache/`` (disable with ``--no-cache`` or
``REPRO_CACHE=off``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import Callable, Dict, List, Optional

from ..errors import ReproError
from ..scenarios.library import scenario
from ..scenarios.spec import ScenarioSpec
from . import figures
from .parallel import (
    CACHE_ENV,
    SHARDS_ENV,
    RunSpec,
    cache_dir,
    clear_cache,
    run_grid,
)
from .report import render_series, render_sweep, render_table, render_tails
from .runner import ExperimentSettings

__all__ = ["EXPERIMENTS", "main", "build_parser"]

#: The single run that best illustrates what an experiment measures,
#: where that is not the plain traffic baseline (sweeps use their
#: baseline point); see :func:`exemplar`.
EXEMPLARS: Dict[str, ScenarioSpec] = {
    "fig1": figures.SCHEDULED,
    "fig3": figures.SCHEDULED,
    "table1": figures.SCHEDULED,
    "fig6": figures.SCHEDULED,
    "fig7": figures.SCHEDULED,
    "fig17": scenario("baseline_wordcount"),
    "fig18": scenario("baseline_wordcount"),
    "fig19": scenario("baseline_traffic", storage="nvme"),
    "fig20": scenario("baseline_wordcount", storage="nvme"),
}


def exemplar(experiment: str) -> ScenarioSpec:
    """The scenario ``repro trace``/``profile``/``run --faults`` run for
    *experiment*."""
    return EXEMPLARS.get(experiment, scenario("baseline_traffic"))


#: CLI name -> experiment function.
EXPERIMENTS: Dict[str, Callable] = {
    "fig1": figures.fig1_fig3_baseline_timeline,
    "fig3": figures.fig1_fig3_baseline_timeline,
    "table1": figures.table1_checkpoint_stats,
    "fig6": figures.fig6_point_in_time,
    "fig7": figures.fig7_zoom_spans,
    "fig8": figures.fig8_statistical,
    "fig12": figures.fig12_delay_sweep,
    "fig13": figures.fig13_flush_thread_sweep,
    "fig14": figures.fig14_compaction_thread_sweep,
    "fig15": figures.fig15_kneedle,
    "fig16": figures.fig16_traffic_mitigation,
    "fig17": figures.fig17_wordcount_tails,
    "fig18": figures.fig18_wordcount_timeline,
    "fig19": figures.fig19_traffic_nvme,
    "fig20": figures.fig20_wordcount_nvme,
    "headline": figures.headline_reduction,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ShadowSync reproduction: regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser(
        "run",
        help="run one experiment (or one library scenario) and print its "
             "report",
    )
    run.add_argument("experiment", nargs="?", choices=sorted(EXPERIMENTS),
                     help="paper experiment to regenerate (omit when using "
                          "--scenario)")
    run.add_argument("--scenario", default=None, metavar="NAME",
                     help="run one library scenario through the unified "
                          "run_scenario path instead of a paper "
                          "experiment ('repro scenarios list' for names)")
    run.add_argument("--duration", type=float, default=200.0,
                     help="simulated seconds (default 200)")
    run.add_argument("--warmup", type=float, default=40.0,
                     help="seconds excluded from measurement (default 40)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes for sweep experiments "
                          "(default serial; 0 = one per core)")
    run.add_argument("--shards", type=int, default=None, metavar="G",
                     help="run each simulation as G independent cluster "
                          "slices advancing in lock-step checkpoint "
                          "epochs and merge their summaries (must divide "
                          "the deployment: traffic 4 nodes, wordcount 16 "
                          "cores); --jobs fans the slices over processes")
    run.add_argument("--no-cache", action="store_true",
                     help="bypass the on-disk result cache")
    run.add_argument("--json", action="store_true",
                     help="dump the raw experiment dict as JSON")
    run.add_argument("--trace", action="store_true",
                     help="record structured traces; they ride the cached "
                          "summaries (export with 'repro trace')")
    run.add_argument("--faults", default=None, metavar="PLAN",
                     help="inject a fault plan into the experiment's exemplar "
                          "run: a preset name (crash, flush-stall, "
                          "compaction-stall, slow-disk, checkpoint-timeout, "
                          "backpressure, chaos), a JSON file path, or inline "
                          "JSON")

    scenarios = sub.add_parser(
        "scenarios",
        help="list the named scenario library or show one spec "
             "(serialized form + cache-key payload)",
    )
    scenarios.add_argument("action", choices=("list", "show"))
    scenarios.add_argument("name", nargs="?", default=None,
                           help="scenario name (required for 'show')")
    scenarios.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON")

    trace = sub.add_parser(
        "trace",
        help="record one traced exemplar run of an experiment, write the "
             "trace and print its millibottleneck attribution",
    )
    trace.add_argument("experiment", nargs="?", default="fig8",
                       choices=sorted(EXPERIMENTS))
    trace.add_argument("--duration", type=float, default=104.0,
                       help="simulated seconds (default 104)")
    trace.add_argument("--warmup", type=float, default=32.0,
                       help="seconds excluded from analysis (default 32)")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--out", default=None,
                       help="trace file path "
                            "(default <experiment>.trace.jsonl/.json)")
    trace.add_argument("--chrome", action="store_true",
                       help="write Chrome trace-event JSON (load in Perfetto "
                            "or chrome://tracing) instead of JSONL")
    trace.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")

    compare = sub.add_parser(
        "compare", help="run traffic baseline vs solution and print tails"
    )
    compare.add_argument("--duration", type=float, default=200.0)
    compare.add_argument("--warmup", type=float, default=40.0)
    compare.add_argument("--seed", type=int, default=1)
    compare.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default serial)")
    compare.add_argument("--no-cache", action="store_true",
                         help="bypass the on-disk result cache")

    soak = sub.add_parser(
        "soak",
        help="chaos-soak: run seeded fault schedules against the guarded "
             "pipeline and audit SLO recovery, exactly-once invariants and "
             "queue bounds (exit 1 on any failure)",
    )
    soak.add_argument("--kind", default="library",
                      help="pipeline under chaos: 'library' (default) "
                           "samples one scenario per seed from the soak "
                           "pool, a library scenario name pins that "
                           "scenario ('traffic'/'wordcount' are aliases "
                           "of baseline_traffic/baseline_wordcount)")
    soak.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                      help="one soak run per seed (default: 1 2)")
    soak.add_argument("--duration", type=float, default=130.0,
                      help="simulated seconds per run (default 130)")
    soak.add_argument("--warmup", type=float, default=20.0,
                      help="seconds before the baseline window (default 20)")
    soak.add_argument("--faults", default="combined", metavar="PLAN",
                      help="fault plan: preset name, JSON file or inline "
                           "JSON (default: the 'combined' preset)")
    soak.add_argument("--random", action="store_true",
                      help="ignore --faults; generate a random FaultPlan "
                           "per seed (FaultPlan.random)")
    soak.add_argument("--cluster", action="store_true",
                      help="install the elastic cluster layer on every "
                           "scenario run and let --random draw node-crash/"
                           "flap/partition faults; the audit additionally "
                           "requires resolved migrations and full "
                           "partition ownership")
    soak.add_argument("--budget", type=float, default=25.0,
                      help="recovery budget after each fault window, "
                           "seconds (default 25)")
    soak.add_argument("--ratio", type=float, default=1.5,
                      help="recovered = p99.9 <= ratio x pre-fault "
                           "baseline (default 1.5)")
    soak.add_argument("--queue-limit", type=float, default=300_000.0,
                      help="max sampled backlog before the run counts as "
                           "a queue blow-up (default 300000 messages)")
    soak.add_argument("--jobs", type=int, default=None,
                      help="worker processes (default serial; 0 = one "
                           "per core)")
    soak.add_argument("--no-cache", action="store_true",
                      help="bypass the on-disk result cache")
    soak.add_argument("--json", action="store_true",
                      help="dump the full SoakReport as JSON")

    cluster = sub.add_parser(
        "cluster",
        help="elastic cluster layer: show a scenario's ClusterSpec or run "
             "an elastic scenario and audit membership, migrations and "
             "ownership (exit 1 on violations or unowned partitions)",
    )
    cluster.add_argument("action", choices=("show", "run"))
    cluster.add_argument("scenario", nargs="?", default="elastic_scale",
                         help="library scenario with a cluster layer "
                              "(default elastic_scale)")
    cluster.add_argument("--duration", type=float, default=200.0,
                         help="simulated seconds (default 200)")
    cluster.add_argument("--warmup", type=float, default=40.0,
                         help="seconds excluded from measurement "
                              "(default 40)")
    cluster.add_argument("--seed", type=int, default=1)
    cluster.add_argument("--no-cache", action="store_true",
                         help="bypass the on-disk result cache")
    cluster.add_argument("--json", action="store_true",
                         help="dump the cluster report (show: the spec) "
                              "as JSON")

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("info", "clear"))

    lint = sub.add_parser(
        "lint",
        help="static determinism lint: flag wall-clock reads, unseeded "
             "RNG, unordered iteration, mutable defaults and module "
             "singletons (exit 1 on findings)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as a JSON report (same as "
                           "--format json)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default=None,
                      help="output format: terminal text (default), the "
                           "findings_json report, or SARIF 2.1.0 for code "
                           "scanning")
    lint.add_argument("--rules", metavar="RULE", nargs="+", default=None,
                      help="restrict to these rules: IDs (DS201), slugs "
                           "(hidden-blocking-call) or families (DS2xx)")

    sync = sub.add_parser(
        "sync",
        help="hidden-synchronization audit: DS2xx static catalog check "
             "plus a trace-grounded wait-for graph diffed against the "
             "declared sync catalog (exit 1 on shadow edges or findings)",
    )
    sync.add_argument("--scenario", default="baseline_traffic",
                      help="traced scenario for the dynamic half "
                           "(default baseline_traffic)")
    sync.add_argument("--duration", type=float, default=120.0,
                      help="simulated seconds (default 120)")
    sync.add_argument("--warmup", type=float, default=10.0)
    sync.add_argument("--seed", type=int, default=1)
    sync.add_argument("--trace-file", metavar="PATH", default=None,
                      help="audit a pre-recorded JSONL trace instead of "
                           "running the scenario")
    sync.add_argument("--static-only", action="store_true",
                      help="skip the traced run; DS2xx catalog check only")
    sync.add_argument("--dynamic-only", action="store_true",
                      help="skip the static half; wait-for graph only")
    sync.add_argument("paths", nargs="*", metavar="PATH",
                      help="source tree for the static half (default: the "
                           "installed repro package)")
    sync.add_argument("--no-cache", action="store_true",
                      help="bypass the on-disk result cache")
    sync.add_argument("--json", action="store_true",
                      help="dump the audit report as JSON")

    profile = sub.add_parser(
        "profile",
        help="profile one exemplar run: kernel dispatch histogram "
             "(per-callback event counts and self time) plus an optional "
             "cProfile pass — the starting point for hot-spot hunts",
    )
    profile.add_argument("experiment", nargs="?", default="fig8",
                         choices=sorted(EXPERIMENTS))
    profile.add_argument("--duration", type=float, default=104.0,
                         help="simulated seconds (default 104)")
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument("--top", type=int, default=20,
                         help="rows per section (default 20)")
    profile.add_argument("--shards", type=int, default=1, metavar="G",
                         help="profile the 1/G cluster slice a sharded "
                              "worker executes")
    profile.add_argument("--no-cprofile", action="store_true",
                         help="skip the cProfile pass; dispatch histogram "
                              "only (faster, uninflated wall time)")
    profile.add_argument("--json", action="store_true",
                         help="dump the ProfileReport as JSON")

    sanitize = sub.add_parser(
        "sanitize",
        help="runtime determinism sanitizers: run a benchmark twice with "
             "perturbed same-timestamp tie-breaking and diff state "
             "digests, then check cache-key/summary order independence "
             "(exit 1 on divergence)",
    )
    sanitize.add_argument("--kind", choices=("traffic", "wordcount"),
                          default="wordcount")
    sanitize.add_argument("--duration", type=float, default=24.0,
                          help="simulated seconds per probe run (default 24)")
    sanitize.add_argument("--window", type=float, default=2.0,
                          help="digest window, seconds (default 2)")
    sanitize.add_argument("--seed", type=int, default=1)
    sanitize.add_argument("--interval", type=float, default=8.0,
                          help="checkpoint interval, seconds (default 8)")
    sanitize.add_argument("--storage", choices=("tmpfs", "nvme"),
                          default="tmpfs")
    sanitize.add_argument("--shards", type=int, default=1, metavar="G",
                          help="sanitize the sharded mode: probe the 1/G "
                               "cluster slice a sharded worker executes")
    sanitize.add_argument("--perturbations", type=int, default=8,
                          help="dict-order shuffles for the ordering "
                               "checks (default 8)")
    sanitize.add_argument("--json", action="store_true",
                          help="dump the SanitizeReport as JSON")

    tune = sub.add_parser(
        "tune",
        help="search the joint mitigation space (policy zoo × threshold "
             "spread × delay × pool sizes) on a library scenario and "
             "emit the tuned-config artifact + headline table",
    )
    tune.add_argument("--scenario", default="baseline_traffic",
                      help="library scenario to tune (default "
                           "baseline_traffic)")
    tune.add_argument("--smoke", action="store_true",
                      help="tiny grid + short runs (CI smoke)")
    tune.add_argument("--duration", type=float, default=None,
                      help="simulated seconds per run (default 200, "
                           "smoke 60)")
    tune.add_argument("--warmup", type=float, default=None,
                      help="measurement warmup, seconds (default 40, "
                           "smoke 20)")
    tune.add_argument("--seed", type=int, default=1)
    tune.add_argument("--policies", default=None,
                      help="comma-separated policy subset (default: the "
                           "whole registry)")
    tune.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes (default serial; 0 = one "
                           "per core)")
    tune.add_argument("--shards", type=int, default=None, metavar="G",
                      help="run every config as G cluster slices")
    tune.add_argument("--no-cache", action="store_true",
                      help="bypass the result cache")
    tune.add_argument("--out", default=None, metavar="PATH",
                      help="write the TunedConfig artifact JSON here")
    tune.add_argument("--json", action="store_true",
                      help="dump the full TuneReport as JSON")
    return parser


def _summarize(name: str, out: dict) -> str:
    """Render the parts of an experiment dict a terminal reader wants."""
    lines: List[str] = [f"== {name} =="]
    if "rows" in out and out["rows"] and "delay_s" in out["rows"][0]:
        lines.append(render_sweep(out["rows"], "delay_s"))
    elif "rows" in out and out["rows"] and "flush_threads" in out["rows"][0]:
        lines.append(render_sweep(out["rows"], "flush_threads"))
    elif "rows" in out and out["rows"] and "compaction_threads" in out["rows"][0]:
        lines.append(render_sweep(out["rows"], "compaction_threads"))
    elif "rows" in out:  # table1
        headers = ["CP", "t [s]", "flush s0/s1", "compaction s0/s1", "input MB"]
        table_rows = []
        for row in out["rows"]:
            table_rows.append([
                row["checkpoint"],
                f"{row['time']:.0f}",
                f"{row['flush_count'].get('s0', 0)}/{row['flush_count'].get('s1', 0)}",
                f"{row['compaction_count'].get('s0', 0)}/"
                f"{row['compaction_count'].get('s1', 0)}",
                f"{row['compaction_input_mb']:.0f}",
            ])
        lines.append(render_table(headers, table_rows))
    if "times" in out and "p999" in out:
        lines.append(render_series(out["times"], out["p999"],
                                   label="p99.9 latency [s]"))
    mitigated_key = next(
        (k for k in ("solution", "mitigated") if k in out), None
    )
    if "baseline" in out and mitigated_key is not None:
        baseline = out["baseline"]
        mitigated = out[mitigated_key]
        lines.append(render_tails({
            "baseline": baseline.get("tails", baseline),
            mitigated_key: mitigated.get("tails", mitigated),
        }))
        lines.append(
            f"reduction: p99.9 -> {out['reduction_p999']:.0%}, "
            f"p95 -> {out['reduction_p95']:.0%}"
        )
    if "tails" in out:
        lines.append(render_tails({"run": out["tails"]}))
    for key in ("spike_period_s", "best_delay_s", "best_flush_threads",
                "best_compaction_threads", "recommended_threads",
                "floor_s"):
        if out.get(key) is not None:
            lines.append(f"{key}: {out[key]}")
    return "\n".join(lines)


def _render_millibottleneck(report) -> str:
    """Terminal rendering of a millibottleneck attribution report."""
    lines = [
        f"millibottleneck report (window {report.window_s * 1000:.0f} ms, "
        f"spike threshold {report.threshold_s:.2f} s)",
        f"spikes: {report.spike_count}  attributed: {report.attributed_count} "
        f"({report.attributed_fraction:.0%})  "
        f"classification: {report.classification}"
        + (f"  alignment: {report.alignment:.2f}"
           if report.alignment is not None else ""),
    ]
    if report.saturation_windows:
        lines.append(f"cpu saturation windows: {len(report.saturation_windows)}")
    if report.spikes:
        headers = ["peak t [s]", "p99.9 [s]", "flush", "compaction",
                   "overlap [s]", "CP", "class"]
        rows = [
            [f"{s.peak_time:.1f}", f"{s.peak_s:.2f}", s.flush_spans,
             s.compaction_spans, f"{s.overlap_s:.2f}", s.checkpoint_index,
             s.classification]
            for s in report.spikes
        ]
        lines.append(render_table(headers, rows))
    return "\n".join(lines)


def _trace_command(args) -> int:
    """Run one traced exemplar run; write the trace, print attribution."""
    from ..analysis.millibottleneck import analyze_summary
    from ..trace import TraceEvent, Tracer

    settings = ExperimentSettings(
        duration_s=args.duration, warmup_s=args.warmup, seed=args.seed,
        trace=True,
    )
    spec = RunSpec(scenario=exemplar(args.experiment), settings=settings,
                   label=f"trace:{args.experiment}")
    with _cache_override(args.no_cache):
        summary = run_grid([spec])[0]
    if not summary.trace_events:
        print("run produced no trace events", file=sys.stderr)
        return 1

    tracer = Tracer()
    tracer.extend(TraceEvent.from_dict(e) for e in summary.trace_events)
    # Give the exported file a latency track so the spike context is
    # visible next to the spans in Perfetto.
    for t, v in zip(summary.fine_times, summary.fine_p999):
        tracer.counter("latency_p999", "latency", t, v, tid="latency")

    out = args.out
    if out is None:
        out = f"{args.experiment}.trace." + ("json" if args.chrome else "jsonl")
    if args.chrome:
        tracer.write_chrome(out)
    else:
        tracer.write_jsonl(out)
    print(f"{len(tracer)} events ({summary.scenario} run, schema "
          f"{summary.trace_schema}) -> {out}")

    report = analyze_summary(summary)
    print(_render_millibottleneck(report))
    return 0


def _faults_command(args) -> int:
    """Run the experiment's exemplar under a fault plan; report recovery."""
    from ..errors import ConfigurationError
    from ..faults import load_fault_plan

    try:
        plan = load_fault_plan(args.faults)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    settings = ExperimentSettings(
        duration_s=args.duration, warmup_s=args.warmup, seed=args.seed,
        trace=args.trace,
    )
    spec = RunSpec(scenario=exemplar(args.experiment).with_faults(plan),
                   settings=settings, label=f"faults:{args.experiment}")
    with _cache_override(args.no_cache):
        summary = run_grid([spec], jobs=args.jobs)[0]

    if args.json:
        json.dump(summary.to_dict(), sys.stdout, indent=2, default=str)
        print()
        return 0

    print(f"== {args.experiment} under fault plan {plan.name!r} ==")
    print(render_tails({summary.label: summary.tails}))
    if summary.fault_events:
        headers = ["fault", "node", "start [s]", "end [s]", "factor"]
        rows = [
            [e["kind"], e["node"], f"{e['start']:.1f}",
             "-" if e.get("end") is None else f"{e['end']:.1f}",
             f"{e['factor']:.2f}"]
            for e in summary.fault_events
        ]
        print(render_table(headers, rows))
    restored = sum(
        len(e.get("restores", ())) for e in summary.fault_events
    )
    if restored:
        print(f"instances restored from checkpoint: {restored}")
    violations = summary.invariant_violations
    if violations:
        print(f"INVARIANT VIOLATIONS: {len(violations)}")
        for v in violations[:10]:
            print(f"  [{v['time']:.1f}s] {v['invariant']}: {v['message']}")
        return 1
    print("invariant violations: 0")
    return 0


def _scenarios_command(args) -> int:
    """List the scenario library, or show one spec in full."""
    from ..errors import ConfigurationError
    from ..scenarios import SOAK_POOL, scenario_names
    from .parallel import cache_key_from_dict

    if args.action == "list":
        if args.json:
            from ..scenarios import SCENARIOS

            json.dump(
                {name: SCENARIOS[name].to_dict() for name in scenario_names()},
                sys.stdout, indent=2,
            )
            print()
            return 0
        headers = ["scenario", "app", "arrival", "tenants", "soak pool"]
        rows = []
        for name in scenario_names():
            spec = scenario(name)
            rows.append([
                name, spec.app, spec.workload.arrival, spec.tenants,
                "yes" if name in SOAK_POOL else "-",
            ])
        print(render_table(headers, rows))
        print("\nrun one with: repro run --scenario NAME  "
              "(details: repro scenarios show NAME)")
        return 0

    if not args.name:
        print("error: 'repro scenarios show' needs a scenario name",
              file=sys.stderr)
        return 2
    try:
        spec = scenario(args.name)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "spec": spec.to_dict(),
        "cache_key": cache_key_from_dict(
            {"scenario": spec.key_dict()}, version="scenario"
        ),
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    print(f"== {spec.name} ==")
    print(spec.description)
    print(f"\ncache key (spec content hash): {payload['cache_key']}")
    print(json.dumps(payload["spec"], indent=2))
    return 0


def _run_scenario_command(args) -> int:
    """Run one library scenario through the unified scenario path."""
    from ..errors import ConfigurationError
    from ..faults import load_fault_plan

    try:
        spec = scenario(args.scenario)
        if args.faults:
            spec = spec.with_faults(load_fault_plan(args.faults))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    settings = ExperimentSettings(
        duration_s=args.duration, warmup_s=args.warmup, seed=args.seed,
        trace=args.trace,
    )
    run_spec = RunSpec(
        scenario=spec, settings=settings, label=f"scenario:{spec.name}"
    )
    with _cache_override(args.no_cache), _shard_override(args.shards):
        summary = run_grid([run_spec], jobs=args.jobs)[0]
    if args.json:
        json.dump(summary.to_dict(), sys.stdout, indent=2, default=str)
        print()
        return 0
    print(f"== scenario {spec.name} ==")
    print(spec.description)
    print(render_tails({spec.name: summary.tails}))
    if summary.coarse_times:
        print(render_series(summary.coarse_times, summary.coarse_p999,
                            label="p99.9 latency [s]"))
    if summary.invariant_violations:
        print(f"INVARIANT VIOLATIONS: {len(summary.invariant_violations)}")
        return 1
    return 0


def _cluster_command(args) -> int:
    """Show a scenario's ClusterSpec, or run it and audit the cluster."""
    from ..errors import ConfigurationError

    try:
        spec = scenario(args.scenario)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if spec.cluster is None:
        print(f"error: scenario {spec.name!r} has no cluster layer "
              "(pick one with a 'cluster' section, e.g. elastic_scale)",
              file=sys.stderr)
        return 2

    if args.action == "show":
        payload = spec.cluster.to_dict()
        if args.json:
            json.dump(payload, sys.stdout, indent=2)
            print()
            return 0
        print(f"== cluster spec of {spec.name} ==")
        print(f"heartbeat {payload['heartbeat_interval_s']}s, "
              f"phi threshold {payload['phi_threshold']}, "
              f"min std {payload['min_std_s']}s, "
              f"window {payload['history_window']} samples")
        print(f"migration: {payload['migration_bandwidth_mb_s']} MB/s, "
              f"deadline {payload['transfer_deadline_s']}s, "
              f"handover pause {payload['handover_pause_s']}s, "
              f"max parallel {payload['max_parallel_migrations']}")
        if payload.get("events"):
            headers = ["action", "at [s]", "count"]
            rows = [[e["action"], f"{e['at_s']:.1f}", e["count"]]
                    for e in payload["events"]]
            print(render_table(headers, rows))
        else:
            print("membership schedule: none (static unless faulted)")
        return 0

    settings = ExperimentSettings(
        duration_s=args.duration, warmup_s=args.warmup, seed=args.seed
    )
    run_spec = RunSpec(
        scenario=spec, settings=settings, label=f"cluster:{spec.name}"
    )
    with _cache_override(args.no_cache):
        summary = run_grid([run_spec])[0]
    report = summary.cluster or {}
    if args.json:
        json.dump(
            {"scenario": spec.name, "tails": summary.tails,
             "cluster": report,
             "invariant_violations": summary.invariant_violations},
            sys.stdout, indent=2, default=str,
        )
        print()
    else:
        print(f"== cluster run: {spec.name} ==")
        nodes = report.get("nodes", {})
        print(f"live {nodes.get('live', [])}  "
              f"retired {nodes.get('retired', [])}  "
              f"down {nodes.get('down', [])}")
        migrations = report.get("migrations", [])
        by_status: Dict[str, int] = {}
        for record in migrations:
            by_status[record["status"]] = by_status.get(record["status"], 0) + 1
        print(f"migrations: {len(migrations)} {by_status}  "
              f"ownership flips: {report.get('ownership_flips', 0)}")
        if report.get("windows"):
            headers = ["window", "start [s]", "end [s]"]
            rows = [[label, f"{start:.1f}", f"{end:.1f}"]
                    for label, start, end in report["windows"]]
            print(render_table(headers, rows))
        print(render_tails({spec.name: summary.tails}))

    failed = False
    unowned = report.get("unowned_partitions") or []
    if unowned:
        print(f"UNOWNED PARTITIONS: {unowned}", file=sys.stderr)
        failed = True
    in_flight = report.get("in_flight_migrations", 0)
    if in_flight:
        print(f"UNRESOLVED MIGRATIONS: {in_flight}", file=sys.stderr)
        failed = True
    if summary.invariant_violations:
        print(f"INVARIANT VIOLATIONS: {len(summary.invariant_violations)}",
              file=sys.stderr)
        for v in summary.invariant_violations[:10]:
            print(f"  [{v['time']:.1f}s] {v['invariant']}: {v['message']}",
                  file=sys.stderr)
        failed = True
    if failed:
        return 1
    if not args.json:
        print("cluster audit: PASS (single owner per partition, no lost "
              "state, all migrations resolved)")
    return 0


def _soak_command(args) -> int:
    """Run the chaos-soak campaign; print verdicts; exit 1 on failure."""
    from ..errors import ConfigurationError
    from ..resilience.soak import run_soak

    try:
        with _cache_override(args.no_cache):
            report = run_soak(
                kind=args.kind,
                seeds=tuple(args.seeds),
                duration_s=args.duration,
                warmup_s=args.warmup,
                faults=args.faults,
                random_faults=args.random,
                cluster=args.cluster,
                recovery_budget_s=args.budget,
                recovery_ratio=args.ratio,
                queue_limit_messages=args.queue_limit,
                jobs=args.jobs,
            )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2, default=str)
        print()
        return 0 if report.ok else 1

    plan_name = "random per seed" if args.random else args.faults
    print(f"== chaos soak: {args.kind}, plan {plan_name!r}, "
          f"{len(args.seeds)} seed(s), {args.duration:.0f}s each ==")
    for run in report.runs:
        verdict = "PASS" if run["ok"] else "FAIL"
        print(f"\nseed {run['seed']} scenario {run['scenario']} [{verdict}]  "
              f"baseline p99.9 {run['baseline_p999_s']:.3f}s  "
              f"trips {run['trips']}  shed {run['shed_messages']:.0f} msg  "
              f"watchdog restarts {run['watchdog_restarts']}  "
              f"violations {run['invariant_violations']}")
        if run["windows"]:
            headers = ["fault window", "start [s]", "end [s]",
                       "recovered [s]", "deadline [s]"]
            rows = [
                [w["label"], f"{w['start']:.1f}", f"{w['end']:.1f}",
                 "-" if w["recovered_at"] is None
                 else f"{w['recovered_at']:.1f}",
                 f"{w['budget_until']:.1f}"]
                for w in run["windows"]
            ]
            print(render_table(headers, rows))
        for failure in run["failures"]:
            print(f"  FAIL: {failure}")
    print()
    if report.ok:
        print("soak: PASS (all windows recovered, zero invariant "
              "violations, queues bounded)")
        return 0
    print(f"soak: FAIL ({len(report.failures)} failure(s))")
    return 1


def _lint_command(args) -> int:
    """Lint the given paths (default: this installed package)."""
    from pathlib import Path

    from ..errors import ConfigurationError
    from ..sanitize import (
        findings_json,
        findings_sarif,
        lint_paths,
        render_findings,
    )

    fmt = args.format or ("json" if args.json else "text")
    paths = [Path(p) for p in args.paths]
    if not paths:
        paths = [Path(__file__).resolve().parents[1]]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2
    try:
        findings = lint_paths(paths, rules=args.rules)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fmt == "json":
        json.dump(findings_json(findings), sys.stdout, indent=2)
        print()
    elif fmt == "sarif":
        json.dump(findings_sarif(findings), sys.stdout, indent=2)
        print()
    else:
        print(render_findings(findings))
    return 1 if findings else 0


def _sync_command(args) -> int:
    """Run the hidden-synchronization audit; print the report."""
    from pathlib import Path

    from ..errors import AnalysisError, ConfigurationError
    from ..sanitize import analyze_sync

    if args.static_only and args.dynamic_only:
        print("error: --static-only and --dynamic-only are mutually "
              "exclusive", file=sys.stderr)
        return 2
    events = None
    scenario = None if args.static_only else args.scenario
    if args.trace_file is not None:
        from ..trace import read_jsonl

        try:
            events = read_jsonl(args.trace_file)
        except OSError as exc:
            print(f"error: cannot read trace: {exc}", file=sys.stderr)
            return 2
    paths = [Path(p) for p in args.paths] or None
    try:
        with _cache_override(args.no_cache):
            report = analyze_sync(
                scenario=scenario,
                duration_s=args.duration,
                warmup_s=args.warmup,
                seed=args.seed,
                paths=paths,
                events=events,
                static=not args.dynamic_only,
            )
    except (AnalysisError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(report.render())
    return 0 if report.ok else 1


def _profile_command(args) -> int:
    """Profile the experiment's exemplar run; print the report."""
    from ..errors import ConfigurationError
    from .profile import profile_run

    try:
        report = profile_run(
            kind=exemplar(args.experiment),
            duration_s=args.duration,
            seed=args.seed,
            label=f"profile:{args.experiment}",
            with_cprofile=not args.no_cprofile,
            shards=args.shards,
            top=max(args.top, 50),
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(report.render(top=args.top))
    return 0


def _tune_command(args) -> int:
    """Joint mitigation-space search; writes the artifact on request."""
    from ..core.autotuner import tune

    policies = (
        [p.strip() for p in args.policies.split(",") if p.strip()]
        if args.policies
        else None
    )
    try:
        with _cache_override(args.no_cache):
            report = tune(
                scenario=args.scenario,
                duration_s=args.duration,
                warmup_s=args.warmup,
                seed=args.seed,
                policies=policies,
                smoke=args.smoke,
                jobs=args.jobs,
                shards=args.shards,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.best.to_dict(), handle, indent=2)
            handle.write("\n")
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2, default=str)
        print()
    else:
        print(report.render())
        if args.out:
            print(f"tuned-config artifact written to {args.out}")
    if os.environ.get("REPRO_PERF_GATE") == "1":
        # CI regression gate: the tuned winner must beat the paper plan.
        if report.best.p999 >= report.best.paper_p999:
            print(
                f"perf gate: tuned p99.9 {report.best.p999 * 1e3:.2f} ms did "
                f"not beat paper {report.best.paper_p999 * 1e3:.2f} ms",
                file=sys.stderr,
            )
            return 1
    return 0


def _sanitize_command(args) -> int:
    """Run the runtime sanitizers on one benchmark; exit 1 on FAIL."""
    from ..sanitize import sanitize_experiment

    report = sanitize_experiment(
        kind=scenario(
            args.kind, interval_s=args.interval, storage=args.storage
        ),
        duration_s=args.duration,
        window_s=args.window,
        seed=args.seed,
        perturbations=args.perturbations,
        shards=args.shards,
    )
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2, default=str)
        print()
    else:
        print(report.render())
    return 0 if report.ok else 1


class _cache_override:
    """Temporarily force ``REPRO_CACHE=off`` for ``--no-cache`` runs."""

    def __init__(self, disable: bool) -> None:
        self.disable = disable
        self._saved: Optional[str] = None

    def __enter__(self) -> _cache_override:
        if self.disable:
            self._saved = os.environ.get(CACHE_ENV)
            os.environ[CACHE_ENV] = "off"
        return self

    def __exit__(self, *exc) -> None:
        if self.disable:
            if self._saved is None:
                os.environ.pop(CACHE_ENV, None)
            else:
                os.environ[CACHE_ENV] = self._saved


class _shard_override:
    """Temporarily set ``REPRO_SHARDS`` for ``--shards G`` runs.

    Every experiment executes its runs through
    :func:`~repro.experiments.parallel.run_grid`, which reads the env
    var — so sharding applies uniformly without threading a parameter
    through each figure function.
    """

    def __init__(self, shards: Optional[int]) -> None:
        self.shards = shards
        self._saved: Optional[str] = None

    def __enter__(self) -> "_shard_override":
        if self.shards is not None:
            self._saved = os.environ.get(SHARDS_ENV)
            os.environ[SHARDS_ENV] = str(self.shards)
        return self

    def __exit__(self, *exc) -> None:
        if self.shards is not None:
            if self._saved is None:
                os.environ.pop(SHARDS_ENV, None)
            else:
                os.environ[SHARDS_ENV] = self._saved


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {doc}")
        return 0

    if args.command == "cache":
        root = cache_dir()
        if args.action == "clear":
            removed = clear_cache()
            print(f"removed {removed} cached run(s) from {root}")
        else:
            entries = sorted(root.glob("*.json")) if root.is_dir() else []
            total = sum(entry.stat().st_size for entry in entries)
            print(f"cache directory: {root}")
            print(f"entries: {len(entries)}  ({total / 1e6:.1f} MB)")
        return 0

    if args.command == "compare":
        from ..core.mitigation import MitigationPlan

        settings = ExperimentSettings(
            duration_s=args.duration, warmup_s=args.warmup, seed=args.seed
        )
        specs = [
            RunSpec(
                scenario=scenario("baseline_traffic", mitigation=plan),
                settings=settings,
                label=name,
            )
            for name, plan in (("baseline", None),
                               ("solution", MitigationPlan.paper_solution()))
        ]
        with _cache_override(args.no_cache):
            summaries = run_grid(specs, jobs=args.jobs)
        tails = {s.label: s.tails for s in summaries}
        print(render_tails(tails))
        ratio = tails["solution"]["p999"] / tails["baseline"]["p999"]
        print(f"p99.9 reduced to {ratio:.0%} of baseline")
        return 0

    if args.command == "scenarios":
        return _scenarios_command(args)

    if args.command == "trace":
        return _trace_command(args)

    if args.command == "soak":
        return _soak_command(args)

    if args.command == "cluster":
        return _cluster_command(args)

    if args.command == "lint":
        return _lint_command(args)
    if args.command == "sync":
        return _sync_command(args)

    if args.command == "profile":
        return _profile_command(args)

    if args.command == "sanitize":
        return _sanitize_command(args)

    if args.command == "tune":
        return _tune_command(args)

    if args.command == "run":
        if args.scenario is not None and args.experiment is not None:
            print("error: give either an experiment or --scenario, not both",
                  file=sys.stderr)
            return 2
        if args.scenario is not None:
            return _run_scenario_command(args)
        if args.experiment is None:
            print("error: 'repro run' needs an experiment name or "
                  "--scenario NAME", file=sys.stderr)
            return 2
        if getattr(args, "faults", None):
            return _faults_command(args)

    settings = ExperimentSettings(
        duration_s=args.duration, warmup_s=args.warmup, seed=args.seed,
        trace=args.trace,
    )
    experiment = EXPERIMENTS[args.experiment]
    kwargs = {"settings": settings}
    if "jobs" in inspect.signature(experiment).parameters:
        kwargs["jobs"] = args.jobs
    with _cache_override(args.no_cache), _shard_override(
        getattr(args, "shards", None)
    ):
        out = experiment(**kwargs)
    if args.json:
        json.dump(out, sys.stdout, indent=2, default=str)
        print()
    else:
        print(_summarize(args.experiment, out))
    return 0

"""Command-line interface: regenerate any paper experiment.

``python -m repro --help`` lists the commands and ``python -m repro
COMMAND --help`` their flags; each is one row of :data:`COMMANDS` (see
DESIGN.md §9).

The output is plain text (tables and ASCII timelines); experiment
functions are resolved from :mod:`repro.experiments.figures`.  Sweep
experiments accept ``--jobs N`` to run their independent simulations on
``N`` worker processes, and all of them reuse the content-addressed
result cache under ``.repro-cache/`` (disable with ``--no-cache`` or
``REPRO_CACHE=off``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, ReproError
from ..scenarios.library import scenario
from ..scenarios.spec import ScenarioSpec
from .claims import FIGURES, evaluate
from .figures import EXPERIMENTS, SCHEDULED, takes_jobs
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
from .summary import RunSummary

__all__ = ["COMMANDS", "EXPERIMENTS", "main", "build_parser"]

#: The single run that best illustrates what an experiment measures,
#: where that is not the plain traffic baseline (sweeps use their
#: baseline point); see :func:`exemplar`.
EXEMPLARS: Dict[str, ScenarioSpec] = {
    "fig1": SCHEDULED,
    "fig3": SCHEDULED,
    "table1": SCHEDULED,
    "fig6": SCHEDULED,
    "fig7": SCHEDULED,
    "fig17": scenario("baseline_wordcount"),
    "fig18": scenario("baseline_wordcount"),
    "fig19": scenario("baseline_traffic", storage="nvme"),
    "fig20": scenario("baseline_wordcount", storage="nvme"),
}


def exemplar(experiment: str) -> ScenarioSpec:
    """The scenario ``repro trace``/``profile``/``run --faults`` run for
    *experiment*."""
    return EXEMPLARS.get(experiment, scenario("baseline_traffic"))


# ----------------------------------------------------------------------
# the command table
# ----------------------------------------------------------------------

#: One ``add_argument`` call as data: ``(names, options)``.
Flag = Tuple[tuple, dict]


@dataclass(frozen=True)
class Command:
    """One row of the table: everything ``repro NAME`` is."""

    name: str
    help: str
    flags: Tuple[Flag, ...]
    #: ``args -> exit code`` (0 ok, 1 audit failed, 2 bad input); may
    #: raise :class:`~repro.errors.ReproError`, which :func:`main` turns
    #: into ``error: ...`` and exit 2.
    run: Callable[[argparse.Namespace], int]


#: name -> row, in ``--help`` order.  Adding a subcommand is one
#: ``@command`` function; the parser and the dispatcher read this.
COMMANDS: Dict[str, Command] = {}


def flag(*names: str, **options) -> Flag:
    return names, options


def command(name: str, help: str, *flags: Flag):
    """Register the decorated handler as the ``repro NAME`` row."""

    def register(run: Callable[[argparse.Namespace], int]):
        COMMANDS[name] = Command(name, help, flags, run)
        return run

    return register


# Flags several commands share; each command keeps its own default and
# help text.

def _experiment(**options) -> Flag:
    return flag("experiment", nargs="?", choices=sorted(EXPERIMENTS), **options)


def _duration(default: Optional[float], help: Optional[str] = None) -> Flag:
    return flag("--duration", type=float, default=default, help=help)


def _warmup(default: Optional[float], help: Optional[str] = None) -> Flag:
    return flag("--warmup", type=float, default=default, help=help)


_SEED = flag("--seed", type=int, default=1)


def _jobs(help: str, **options) -> Flag:
    return flag("--jobs", type=int, default=None, help=help, **options)


def _shards(default: Optional[int], help: str) -> Flag:
    return flag("--shards", type=int, default=default, metavar="G", help=help)


def _no_cache(help: str = "bypass the on-disk result cache") -> Flag:
    return flag("--no-cache", action="store_true", help=help)


def _json(help: str) -> Flag:
    return flag("--json", action="store_true", help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ShadowSync reproduction: regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for row in COMMANDS.values():
        subparser = sub.add_parser(row.name, help=row.help)
        for names, options in row.flags:
            subparser.add_argument(*names, **options)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# what the handlers share
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _harness_env(no_cache: bool, shards: Optional[int] = None):
    """``--no-cache`` / ``--shards G`` as ``REPRO_CACHE=off`` /
    ``REPRO_SHARDS=G`` for the duration of one command.

    Every experiment executes its runs through
    :func:`~repro.experiments.parallel.run_grid`, which reads both —
    so neither is threaded through each figure function.
    """
    wanted = {}
    if no_cache:
        wanted[CACHE_ENV] = "off"
    if shards is not None:
        wanted[SHARDS_ENV] = str(shards)
    saved = {name: os.environ.get(name) for name in wanted}
    os.environ.update(wanted)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _settings(args, trace: Optional[bool] = None) -> ExperimentSettings:
    """The measurement conventions a command's flags ask for (*trace*
    defaults to the command's ``--trace`` flag, off where it has none)."""
    if trace is None:
        trace = getattr(args, "trace", False)
    return ExperimentSettings(
        duration_s=args.duration, warmup_s=args.warmup, seed=args.seed,
        trace=trace,
    )


def _run_one(
    args, spec: ScenarioSpec, label: str, trace: Optional[bool] = None
) -> RunSummary:
    """One scenario through the executor, under the command's flags."""
    run_spec = RunSpec(
        scenario=spec, settings=_settings(args, trace), label=label
    )
    with _harness_env(args.no_cache, getattr(args, "shards", None)):
        return run_grid([run_spec], jobs=getattr(args, "jobs", None))[0]


def _emit_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, default=str)
    print()


def _finish(args, report, **render_options) -> int:
    """The report protocol's epilogue: ``to_dict()`` as JSON or
    ``render()`` as text; exit 1 when the report has an ``ok`` that is
    false."""
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(report.render(**render_options))
    return 0 if getattr(report, "ok", True) else 1


def _print_violations(violations, file=None) -> None:
    print(f"INVARIANT VIOLATIONS: {len(violations)}", file=file)
    for v in violations[:10]:
        print(f"  [{v['time']:.1f}s] {v['invariant']}: {v['message']}", file=file)


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


# ----------------------------------------------------------------------
# the commands
# ----------------------------------------------------------------------

@command("list", "list available experiments")
def _list_command(args) -> int:
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name:10s} {doc}")
    return 0


@command(
    "run",
    "run one experiment (or one library scenario) and print its report",
    _experiment(help="paper experiment to regenerate (omit when using "
                     "--scenario)"),
    flag("--scenario", default=None, metavar="NAME",
         help="run one library scenario through the unified run_scenario "
              "path instead of a paper experiment ('repro scenarios list' "
              "for names)"),
    _duration(200.0, "simulated seconds (default 200)"),
    _warmup(40.0, "seconds excluded from measurement (default 40)"),
    _SEED,
    _jobs("worker processes for sweep experiments (default serial; 0 = one "
          "per core)"),
    _shards(None, "run each simulation as G independent cluster slices and "
                  "merge their summaries (must divide the deployment: "
                  "traffic 4 nodes, wordcount 16 cores); --jobs fans the "
                  "slices over processes"),
    _no_cache(),
    _json("dump the raw experiment dict as JSON"),
    flag("--trace", action="store_true",
         help="record structured traces; they ride the cached summaries "
              "(export with 'repro trace')"),
    flag("--faults", default=None, metavar="PLAN",
         help="inject a fault plan into the experiment's exemplar run: a "
              "preset name (crash, flush-stall, compaction-stall, slow-disk, "
              "checkpoint-timeout, backpressure, chaos), a JSON file path, "
              "or inline JSON"),
)
def _run_command(args) -> int:
    if args.scenario is not None and args.experiment is not None:
        raise ConfigurationError(
            "give either an experiment or --scenario, not both"
        )
    if args.scenario is not None:
        return _run_scenario(args)
    if args.experiment is None:
        raise ConfigurationError(
            "'repro run' needs an experiment name or --scenario NAME"
        )
    experiment = EXPERIMENTS[args.experiment]
    sweeps = takes_jobs(experiment)
    if args.shards is not None and not sweeps:
        accepting = [n for n in sorted(EXPERIMENTS) if takes_jobs(EXPERIMENTS[n])]
        raise ConfigurationError(
            f"{args.experiment} reports on one live simulation and cannot "
            f"be sharded; --shards applies to {', '.join(accepting)} and "
            "to --scenario runs"
        )
    if args.faults:
        return _run_faulted(args)
    kwargs = {"settings": _settings(args)}
    if sweeps:
        kwargs["jobs"] = args.jobs
    with _harness_env(args.no_cache, args.shards):
        out = experiment(**kwargs)
    if args.json:
        _emit_json(out)
    else:
        print(_summarize(args.experiment, out))
    return 0


def _run_scenario(args) -> int:
    """Run one library scenario through the unified scenario path."""
    from ..faults import load_fault_plan

    spec = scenario(args.scenario)
    if args.faults:
        spec = spec.with_faults(load_fault_plan(args.faults))
    summary = _run_one(args, spec, f"scenario:{spec.name}")
    if args.json:
        _emit_json(summary.to_dict())
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


def _run_faulted(args) -> int:
    """Run the experiment's exemplar under a fault plan; report recovery."""
    from ..faults import load_fault_plan

    plan = load_fault_plan(args.faults)
    summary = _run_one(args, exemplar(args.experiment).with_faults(plan),
                       f"faults:{args.experiment}")
    if args.json:
        _emit_json(summary.to_dict())
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
    if summary.invariant_violations:
        _print_violations(summary.invariant_violations)
        return 1
    print("invariant violations: 0")
    return 0


def _figure(name: str) -> str:
    """``choices`` for a ``nargs="*"`` positional: argparse's own
    ``choices`` rejects the empty list before Python 3.12."""
    if name not in FIGURES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(FIGURES)})"
        )
    return name


@command(
    "paper",
    "check the paper's claims: run each figure at the standard settings and "
    "print the paper-vs-measured table (exit 1 if a claim fails)",
    flag("figures", nargs="*", metavar="figure", type=_figure,
         help="check only these figures' rows (default: the whole table); "
              f"one of {', '.join(FIGURES)}"),
    _jobs("worker processes for sweep figures (default serial; 0 = one per "
          "core)"),
    _no_cache(),
    _json("dump the ClaimsReport as JSON"),
)
def _paper_command(args) -> int:
    with _harness_env(args.no_cache):
        report = evaluate(args.figures, jobs=args.jobs)
    return _finish(args, report)


@command(
    "scenarios",
    "list the named scenario library or show one spec (serialized form + "
    "cache-key payload)",
    flag("action", choices=("list", "show")),
    flag("name", nargs="?", default=None,
         help="scenario name (required for 'show')"),
    _json("emit machine-readable JSON"),
)
def _scenarios_command(args) -> int:
    from ..scenarios import SCENARIOS, SOAK_POOL, scenario_names
    from .parallel import cache_key_from_dict

    if args.action == "list":
        if args.json:
            _emit_json(
                {name: SCENARIOS[name].to_dict() for name in scenario_names()}
            )
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
        raise ConfigurationError(
            "'repro scenarios show' needs a scenario name"
        )
    spec = scenario(args.name)
    payload = {
        "spec": spec.to_dict(),
        "cache_key": cache_key_from_dict(
            {"scenario": spec.key_dict()}, version="scenario"
        ),
    }
    if args.json:
        _emit_json(payload)
        return 0
    print(f"== {spec.name} ==")
    print(spec.description)
    print(f"\ncache key (spec content hash): {payload['cache_key']}")
    print(json.dumps(payload["spec"], indent=2))
    return 0


@command(
    "trace",
    "record one traced exemplar run of an experiment, write the trace and "
    "print its millibottleneck attribution",
    _experiment(default="fig8"),
    _duration(104.0, "simulated seconds (default 104)"),
    _warmup(32.0, "seconds excluded from analysis (default 32)"),
    _SEED,
    flag("--out", default=None,
         help="trace file path (default <experiment>.trace.jsonl/.json)"),
    flag("--chrome", action="store_true",
         help="write Chrome trace-event JSON (load in Perfetto or "
              "chrome://tracing) instead of JSONL"),
    _no_cache(),
)
def _trace_command(args) -> int:
    from ..analysis.millibottleneck import analyze_summary
    from ..trace import TraceEvent, Tracer

    summary = _run_one(args, exemplar(args.experiment),
                       f"trace:{args.experiment}", trace=True)
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
    print(analyze_summary(summary).render())
    return 0


@command(
    "compare",
    "run traffic baseline vs solution and print tails",
    _duration(200.0),
    _warmup(40.0),
    _SEED,
    _jobs("worker processes (default serial)"),
    _no_cache(),
)
def _compare_command(args) -> int:
    from ..core.mitigation import MitigationPlan

    settings = _settings(args)
    specs = [
        RunSpec(
            scenario=scenario("baseline_traffic", mitigation=plan),
            settings=settings,
            label=name,
        )
        for name, plan in (("baseline", None),
                           ("solution", MitigationPlan.paper_solution()))
    ]
    with _harness_env(args.no_cache):
        summaries = run_grid(specs, jobs=args.jobs)
    tails = {s.label: s.tails for s in summaries}
    print(render_tails(tails))
    ratio = tails["solution"]["p999"] / tails["baseline"]["p999"]
    print(f"p99.9 reduced to {ratio:.0%} of baseline")
    return 0


@command(
    "soak",
    "chaos-soak: run seeded fault schedules against the guarded pipeline "
    "and audit SLO recovery, exactly-once invariants and queue bounds "
    "(exit 1 on any failure)",
    flag("--kind", default="library",
         help="pipeline under chaos: 'library' (default) samples one "
              "scenario per seed from the soak pool, a library scenario "
              "name pins that scenario ('traffic'/'wordcount' are aliases "
              "of baseline_traffic/baseline_wordcount)"),
    flag("--seeds", type=int, nargs="+", default=[1, 2],
         help="one soak run per seed (default: 1 2)"),
    _duration(130.0, "simulated seconds per run (default 130)"),
    _warmup(20.0, "seconds before the baseline window (default 20)"),
    flag("--faults", default="combined", metavar="PLAN",
         help="fault plan: preset name, JSON file or inline JSON (default: "
              "the 'combined' preset)"),
    flag("--random", action="store_true",
         help="ignore --faults; generate a random FaultPlan per seed "
              "(FaultPlan.random)"),
    flag("--cluster", action="store_true",
         help="install the elastic cluster layer on every scenario run and "
              "let --random draw node-crash/flap/partition faults; the "
              "audit additionally requires resolved migrations and full "
              "partition ownership"),
    flag("--budget", type=float, default=25.0,
         help="recovery budget after each fault window, seconds (default "
              "25)"),
    flag("--ratio", type=float, default=1.5,
         help="recovered = p99.9 <= ratio x pre-fault baseline (default "
              "1.5)"),
    flag("--queue-limit", type=float, default=300_000.0,
         help="max sampled backlog before the run counts as a queue "
              "blow-up (default 300000 messages)"),
    _jobs("worker processes (default serial; 0 = one per core)"),
    _no_cache(),
    _json("dump the full SoakReport as JSON"),
)
def _soak_command(args) -> int:
    from ..resilience.soak import run_soak

    with _harness_env(args.no_cache):
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
    if not args.json:
        plan_name = "random per seed" if args.random else args.faults
        print(f"== chaos soak: {args.kind}, plan {plan_name!r}, "
              f"{len(args.seeds)} seed(s), {args.duration:.0f}s each ==")
    return _finish(args, report)


@command(
    "cluster",
    "elastic cluster layer: show a scenario's ClusterSpec or run an elastic "
    "scenario and audit membership, migrations and ownership (exit 1 on "
    "violations or unowned partitions)",
    flag("action", choices=("show", "run")),
    flag("scenario", nargs="?", default="elastic_scale",
         help="library scenario with a cluster layer (default "
              "elastic_scale)"),
    _duration(200.0, "simulated seconds (default 200)"),
    _warmup(40.0, "seconds excluded from measurement (default 40)"),
    _SEED,
    _no_cache(),
    _json("dump the cluster report (show: the spec) as JSON"),
)
def _cluster_command(args) -> int:
    spec = scenario(args.scenario)
    if spec.cluster is None:
        raise ConfigurationError(
            f"scenario {spec.name!r} has no cluster layer "
            "(pick one with a 'cluster' section, e.g. elastic_scale)"
        )

    if args.action == "show":
        payload = spec.cluster.to_dict()
        if args.json:
            _emit_json(payload)
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

    summary = _run_one(args, spec, f"cluster:{spec.name}")
    report = summary.cluster or {}
    if args.json:
        _emit_json(
            {"scenario": spec.name, "tails": summary.tails,
             "cluster": report,
             "invariant_violations": summary.invariant_violations}
        )
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
        _print_violations(summary.invariant_violations, file=sys.stderr)
        failed = True
    if failed:
        return 1
    if not args.json:
        print("cluster audit: PASS (single owner per partition, no lost "
              "state, all migrations resolved)")
    return 0


@command(
    "cache",
    "inspect or clear the result cache",
    flag("action", choices=("info", "clear")),
)
def _cache_command(args) -> int:
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


@command(
    "lint",
    "static determinism lint: flag wall-clock reads, unseeded RNG, "
    "unordered iteration, mutable defaults and module singletons (exit 1 "
    "on findings)",
    flag("paths", nargs="*", metavar="PATH",
         help="files or directories to lint (default: the installed repro "
              "package)"),
    _json("emit findings as a JSON report (same as --format json)"),
    flag("--format", choices=("text", "json", "sarif"), default=None,
         help="output format: terminal text (default), the findings_json "
              "report, or SARIF 2.1.0 for code scanning"),
    flag("--rules", metavar="RULE", nargs="+", default=None,
         help="restrict to these rules: IDs (DS201), slugs "
              "(hidden-blocking-call) or families (DS2xx)"),
)
def _lint_command(args) -> int:
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
    findings = lint_paths(paths, rules=args.rules)
    if fmt == "json":
        _emit_json(findings_json(findings))
    elif fmt == "sarif":
        _emit_json(findings_sarif(findings))
    else:
        print(render_findings(findings))
    return 1 if findings else 0


@command(
    "sync",
    "hidden-synchronization audit: DS2xx static catalog check plus a "
    "trace-grounded wait-for graph diffed against the declared sync "
    "catalog (exit 1 on shadow edges or findings)",
    flag("--scenario", default="baseline_traffic",
         help="traced scenario for the dynamic half (default "
              "baseline_traffic)"),
    _duration(120.0, "simulated seconds (default 120)"),
    _warmup(10.0),
    _SEED,
    flag("--trace-file", metavar="PATH", default=None,
         help="audit a pre-recorded JSONL trace instead of running the "
              "scenario"),
    flag("--static-only", action="store_true",
         help="skip the traced run; DS2xx catalog check only"),
    flag("--dynamic-only", action="store_true",
         help="skip the static half; wait-for graph only"),
    flag("paths", nargs="*", metavar="PATH",
         help="source tree for the static half (default: the installed "
              "repro package)"),
    _no_cache(),
    _json("dump the audit report as JSON"),
)
def _sync_command(args) -> int:
    from ..sanitize import analyze_sync

    if args.static_only and args.dynamic_only:
        raise ConfigurationError(
            "--static-only and --dynamic-only are mutually exclusive"
        )
    events = None
    if args.trace_file is not None:
        from ..trace import read_jsonl

        try:
            events = read_jsonl(args.trace_file)
        except OSError as exc:
            print(f"error: cannot read trace: {exc}", file=sys.stderr)
            return 2
    with _harness_env(args.no_cache):
        report = analyze_sync(
            scenario=None if args.static_only else args.scenario,
            duration_s=args.duration,
            warmup_s=args.warmup,
            seed=args.seed,
            paths=[Path(p) for p in args.paths] or None,
            events=events,
            static=not args.dynamic_only,
        )
    return _finish(args, report)


@command(
    "profile",
    "profile one exemplar run: kernel dispatch histogram (per-callback "
    "event counts and self time) plus an optional cProfile pass — the "
    "starting point for hot-spot hunts",
    _experiment(default="fig8"),
    _duration(104.0, "simulated seconds (default 104)"),
    _SEED,
    flag("--top", type=int, default=20, help="rows per section (default 20)"),
    _shards(1, "profile the 1/G cluster slice a sharded worker executes"),
    flag("--no-cprofile", action="store_true",
         help="skip the cProfile pass; dispatch histogram only (faster, "
              "uninflated wall time)"),
    _json("dump the ProfileReport as JSON"),
)
def _profile_command(args) -> int:
    from .profile import profile_run

    report = profile_run(
        kind=exemplar(args.experiment),
        duration_s=args.duration,
        seed=args.seed,
        label=f"profile:{args.experiment}",
        with_cprofile=not args.no_cprofile,
        shards=args.shards,
        top=max(args.top, 50),
    )
    return _finish(args, report, top=args.top)


@command(
    "sanitize",
    "runtime determinism sanitizers: run a benchmark twice with perturbed "
    "same-timestamp tie-breaking and diff state digests, then check "
    "cache-key/summary order independence (exit 1 on divergence)",
    flag("--kind", choices=("traffic", "wordcount"), default="wordcount"),
    _duration(24.0, "simulated seconds per probe run (default 24)"),
    flag("--window", type=float, default=2.0,
         help="digest window, seconds (default 2)"),
    _SEED,
    flag("--interval", type=float, default=8.0,
         help="checkpoint interval, seconds (default 8)"),
    flag("--storage", choices=("tmpfs", "nvme"), default="tmpfs"),
    _shards(1, "sanitize the sharded mode: probe the 1/G cluster slice a "
               "sharded worker executes"),
    flag("--perturbations", type=int, default=8,
         help="dict-order shuffles for the ordering checks (default 8)"),
    _json("dump the SanitizeReport as JSON"),
)
def _sanitize_command(args) -> int:
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
    return _finish(args, report)


@command(
    "tune",
    "search the joint mitigation space (policy zoo × threshold spread × "
    "delay × pool sizes) on a library scenario and emit the tuned-config "
    "artifact + headline table",
    flag("--scenario", default="baseline_traffic",
         help="library scenario to tune (default baseline_traffic)"),
    flag("--smoke", action="store_true",
         help="tiny grid + short runs (CI smoke)"),
    _duration(None, "simulated seconds per run (default 200, smoke 60)"),
    _warmup(None, "measurement warmup, seconds (default 40, smoke 20)"),
    _SEED,
    flag("--policies", default=None,
         help="comma-separated policy subset (default: the whole registry)"),
    _jobs("worker processes (default serial; 0 = one per core)", metavar="N"),
    _shards(None, "run every config as G cluster slices"),
    _no_cache("bypass the result cache"),
    flag("--out", default=None, metavar="PATH",
         help="write the TunedConfig artifact JSON here"),
    _json("dump the full TuneReport as JSON"),
)
def _tune_command(args) -> int:
    from ..core.autotuner import tune

    policies = (
        [p.strip() for p in args.policies.split(",") if p.strip()]
        if args.policies
        else None
    )
    with _harness_env(args.no_cache):
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
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.best.to_dict(), handle, indent=2)
            handle.write("\n")
    _finish(args, report)
    if args.out and not args.json:
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

"""``python -m perfbench`` — run, trace, compare (and the child they spawn)."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from typing import List, Optional

from . import OUT, ROOT, load_manifest, python_cmd
from .workloads import WORKLOADS

#: Printed by ``run`` beside the BENCHMARK.json end-to-end metrics: the
#: check ratio everywhere, the operation-level view where a workload
#: has operations.  The PR driver wants every gated metric on every
#: workload and none that can read 0, so these are reported here and
#: (the LSM four) listed under ``per_layer`` in BENCHMARK.json.
ALSO_END_TO_END = {
    "lsm_dataplane": ("put_us_p50", "put_us_p99", "get_us_p50",
                      "mixed_kops_per_s"),
}


def _workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--small", action="store_true",
                        help="miniature units (smoke tests)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    child = commands.add_parser("child", help="one workload, one process")
    child.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), default=0)
    child.add_argument("--units", type=int, default=0,
                       help="override the unit count --seconds implies")
    child.add_argument("--out", help="also write the full result document")
    _workload_args(child)

    setup = commands.add_parser("setup", help="set-up only (timed by a child)")
    setup.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    _workload_args(setup)

    for name, text in (("run", "end-to-end pass, tracing off"),
                       ("trace", "traced pass + per-layer probes")):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                         help="repeatable; default: all four")
        sub.add_argument("--reps", type=int, default=0,
                         help="units per workload (default: from run_seconds)")
        sub.add_argument("--out", help="result file (default perfbench/out/)")
        _workload_args(sub)

    compare = commands.add_parser(
        "compare", help="check two result sets against the bounds")
    compare.add_argument("files", nargs="+",
                         help="two result files, or one holding two sets")
    return parser


def spawn_children(args, trace: int, manifest: dict) -> dict:
    """Run each workload in its own fresh process, one after another."""
    OUT.mkdir(exist_ok=True)
    started = time.time()
    result = {"seed": args.seed, "trace": trace, "small": args.small,
              "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        part = OUT / f"child-{name}.json"
        command = python_cmd() + [
            "child", "--workload", name, "--seed", str(args.seed),
            "--seconds", str(manifest["run_seconds"]), "--trace", str(trace),
            "--out", str(part),
        ]
        if args.reps:
            command += ["--units", str(args.reps)]
        if args.small:
            command.append("--small")
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
        if not part.exists():
            print(f"{name}: child exited {done.returncode} without a result",
                  file=sys.stderr)
            result["workloads"][name] = {"correct": False, "crashed": True}
            continue
        result["workloads"][name] = json.loads(part.read_text(encoding="utf-8"))
        part.unlink()
    contexts = [w["context"] for w in result["workloads"].values() if "context" in w]
    result["context"] = contexts[0] if contexts else {}
    result["wall_s_total"] = time.time() - started
    return result


def _row(name: str, metric: dict) -> str:
    text = f"  {name:<34} {metric['value']:>12.6g} {metric['unit']}"
    if "n" in metric:
        text += (f"   n={metric['n']} q1={metric['q1']:.4f} "
                 f"q3={metric['q3']:.4f} max={metric['max']:.4f}")
    if "raw_median" in metric:
        text += f" raw={metric['raw_median']:.4f}"
    return text


def print_result(result: dict, manifest: dict) -> None:
    key = "per_layer" if result["trace"] else "end_to_end"
    names = [m["name"] for m in manifest[key]]
    context = result["context"]
    print(f"perfbench {'trace' if result['trace'] else 'run'}: seed "
          f"{result['seed']}, {context.get('cpu_model')} x{context.get('nproc')}, "
          f"python {context.get('python')}, git {context.get('git_sha')}"
          f"{' (dirty)' if context.get('git_dirty') else ''}")
    for workload, doc in result["workloads"].items():
        if doc.get("crashed"):
            print(f"\n{workload}: CRASHED")
            continue
        print(f"\n{workload}: {doc['units']} unit(s), sim_digest "
              f"{doc['sim_digest'][:16]}, checks {doc['attempted'] - doc['failed']}"
              f"/{doc['attempted']} passed")
        shown = list(names)
        if not result["trace"]:
            shown += ["fail_ratio", *ALSO_END_TO_END.get(workload, ())]
        for name in shown:
            print(_row(name, doc["metrics"][name]))
        for failure in doc["failures"]:
            print(f"  FAILED {failure}")
        if result["trace"]:
            wall = doc["unit_wall_s"][0]
            print(f"  span self time by layer (unit wall {wall:.3f} s):")
            for layer, seconds in sorted(doc["span_layer_self_s"].items()):
                print(f"    {layer:<14} {seconds:8.3f} s {100 * seconds / wall:6.1f} %")
            print(f"  spans written to {doc['trace_file']}")
    print(f"\ntotal {result['wall_s_total']:.1f} s")


def command_pass(args, trace: int) -> int:
    manifest = load_manifest()
    result = spawn_children(args, trace, manifest)
    print_result(result, manifest)
    out = args.out or str(OUT / ("trace.json" if trace else "run.json"))
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"result file: {out}")
    ok = all(doc.get("correct") for doc in result["workloads"].values())
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "child":
        from .child import run_child

        return run_child(args)
    if args.command == "setup":
        from .child import setup_only

        return setup_only(args)
    if args.command == "compare":
        from .compare import command_compare

        return command_compare(args.files)
    return command_pass(args, trace=1 if args.command == "trace" else 0)

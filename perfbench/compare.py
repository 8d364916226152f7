"""``python -m perfbench compare`` — two result sets against the bounds.

One row per (metric, workload): both medians, the relative difference
signed so that positive is worse, the bound from ``BENCHMARK.json`` and
a status:

* ``ok`` — not worse than the bound allows;
* ``regressed`` — worse by more than the bound;
* ``unresolved`` — the spread between a set's own samples is wider than
  the bound, so "no worse" cannot be told from noise (unless every
  sample of B beats every sample of A, which is ``ok``).

``fail_ratio`` may not rise at all, and everything simulated or counted
(``sim_digest``, ``model.*``, exact counts) must be identical.
"""

from __future__ import annotations

import json
from typing import Dict, List

from . import load_manifest
from .stats import spread

#: Where a metric's individual samples sit in a workload's document.
SAMPLES_OF = {"wall_s": "unit_wall_s", "setup_s": "setup_samples_s"}


def load_sets(paths: List[str]) -> List[dict]:
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        sets.extend(doc["sets"] if "sets" in doc else [doc])
    if len(sets) != 2:
        raise SystemExit(
            f"compare needs exactly two result sets, got {len(sets)}")
    return sets


def judge(metric: dict, a: dict, b: dict) -> Dict[str, object]:
    """Status of one end-to-end metric between workload documents."""
    name, bound = metric["name"], metric["bound"]
    va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (vb - va) / va
    key = SAMPLES_OF.get(name)
    sa, sb = (a.get(key) or [va]), (b.get(key) or [vb])
    noise = max(spread(sa), spread(sb))
    if noise > bound:
        clean_win = max(sign * x for x in sb) < min(sign * x for x in sa)
        status = "ok" if clean_win else "unresolved"
    else:
        status = "regressed" if worse > bound else "ok"
    return {"a": va, "b": vb, "worse": worse, "bound": bound,
            "spread": noise, "status": status}


def command_compare(paths: List[str]) -> int:
    manifest = load_manifest()
    first, second = load_sets(paths)
    bad = 0
    print(f"{'metric':<14} {'workload':<15} {'A':>11} {'B':>11} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  status")
    for workload, a in first["workloads"].items():
        b = second["workloads"].get(workload)
        if b is None or a.get("crashed") or b.get("crashed"):
            print(f"{'-':<14} {workload:<15} missing or crashed in one set"
                  "  regressed")
            bad += 1
            continue
        for metric in manifest["end_to_end"]:
            row = judge(metric, a, b)
            bad += row["status"] == "regressed"
            print(f"{metric['name']:<14} {workload:<15} {row['a']:>11.4f} "
                  f"{row['b']:>11.4f} {row['worse']:>+8.1%} {row['bound']:>6.0%} "
                  f"{row['spread']:>7.1%}  {row['status']}")
        fa, fb = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        status = "regressed" if fb > fa else "ok"
        bad += status == "regressed"
        print(f"{'fail_ratio':<14} {workload:<15} {fa:>11.4f} {fb:>11.4f} "
              f"{'':>9} {'any':>6} {'':>7}  {status}")
        exact_a = {"sim_digest": a["sim_digest"], **a["exact"]}
        exact_b = {"sim_digest": b["sim_digest"], **b["exact"]}
        differs = sorted(
            k for k in set(exact_a) | set(exact_b)
            if exact_a.get(k) != exact_b.get(k)
        )
        same = first["seed"] == second["seed"]
        status = "ok" if not differs else ("regressed" if same else "other-seed")
        bad += status == "regressed"
        print(f"{'exact':<14} {workload:<15} "
              f"{len(exact_a) - len(differs)}/{len(exact_a)} identical"
              f"{' differs: ' + ', '.join(differs) if differs else ''}  {status}")
    print("compare: " + ("REGRESSED" if bad else "within bounds"))
    return 1 if bad else 0

#!/usr/bin/env python3
"""Quickstart: see ShadowSync, then mitigate it.

Runs the paper's traffic-jam benchmark twice — baseline and with the
§4 mitigations — and prints the latency tails plus an ASCII p99.9
timeline, where the baseline's periodic spikes (every 4th checkpoint)
are plainly visible.

Run:  python examples/quickstart.py
"""

from repro.api import (
    MitigationPlan,
    build_scenario_job,
    render_series,
    render_tails,
    scenario,
)

RUN_SECONDS = 160.0
WARMUP = 40.0


def run(name, mitigation):
    # 8 s checkpoints, L0 counters aligned: §3.3's statistical worst case
    spec = scenario("baseline_traffic", mitigation=mitigation)
    job = build_scenario_job(spec, seed=1)
    result = job.run(RUN_SECONDS)
    times, p999 = result.latency_timeline(0.999, window=0.5, start=WARMUP)
    print()
    print(render_series(times.tolist(), p999.tolist(), label=f"{name}: p99.9 latency [s]"))
    return result.tail_summary(start=WARMUP)


def main():
    print("ShadowSync quickstart: 60k msg/s, 4 nodes x 16 cores, RocksDB on tmpfs")
    tails = {
        "baseline": run("baseline", None),
        "solution": run("solution (randomized trigger + 1s delay)",
                        MitigationPlan.paper_solution()),
    }
    print()
    print(render_tails(tails))
    ratio = tails["solution"]["p999"] / tails["baseline"]["p999"]
    print(f"\np99.9 reduced to {ratio:.0%} of baseline")


if __name__ == "__main__":
    main()

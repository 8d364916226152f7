#!/usr/bin/env python3
"""Other sources of ShadowSync (§6): JVM GC pauses and DVFS throttling.

The paper's discussion predicts that *any* recurrent asynchronous event
— garbage collection, frequency scaling, noisy neighbours — can form
the same hidden synchronization with checkpoints.  This example injects
GC pauses and DVFS throttling — periodic and Poisson capacity dips
spawned with :func:`repro.faults.capacity.capacity_dip` — into the
fully-mitigated traffic job and shows a new latency tail appearing that
the LSM-level mitigations (by design) cannot remove.

Run:  python examples/other_shadowsync_sources.py
"""

import math

from repro.api import MitigationPlan, build_scenario_job, render_tails, scenario
from repro.faults.capacity import capacity_dip
from repro.sim.process import spawn

RUN, WARMUP = 200.0, 40.0


def gc_pauses(job, windows, interval_s=17.3, pause_s=0.35, jitter=0.3,
              first_at_s=5.0):
    """Periodic stop-the-world pauses on every node, with jitter."""
    sim = job.sim

    def loop(node):
        rng = sim.rng.stream(f"gc/{node.name}")
        yield first_at_s
        while True:
            spawn(sim, capacity_dip(sim, node.cpu, 0.0, pause_s,
                                    windows=windows))
            wait = interval_s * (1.0 + jitter * (2.0 * rng.random() - 1.0))
            yield max(wait, pause_s)

    for node in job.nodes:
        spawn(sim, loop(node), name=f"gc-injector-{node.name}")


def dvfs_throttling(job, windows, mean_interval_s=25.0, duration_s=0.6,
                    frequency_factor=0.6, first_at_s=3.0):
    """Poisson-arriving reduced-frequency windows on every node."""
    sim = job.sim

    def loop(node):
        rng = sim.rng.stream(f"dvfs/{node.name}")
        yield first_at_s
        while True:
            spawn(sim, capacity_dip(sim, node.cpu, frequency_factor,
                                    duration_s, windows=windows))
            yield max(-mean_interval_s * math.log(1.0 - rng.random()),
                      duration_s)

    for node in job.nodes:
        spawn(sim, loop(node), name=f"dvfs-injector-{node.name}")


def run(name, *injectors):
    spec = scenario("baseline_traffic", mitigation=MitigationPlan.paper_solution())
    job = build_scenario_job(spec, seed=1)
    windows = []
    for injector in injectors:
        injector(job, windows)
    result = job.run(RUN)
    print(f"{name}: {len(windows)} disturbance windows injected")
    return result.tail_summary(start=WARMUP)


def main():
    print("mitigated traffic job (randomized trigger + 1 s delay) under §6 "
          "disturbances\n")
    tails = {
        "quiet": run("quiet"),
        "gc-pauses": run("gc-pauses", gc_pauses),
        "gc+dvfs": run("gc+dvfs", gc_pauses, dvfs_throttling),
    }
    print()
    print(render_tails(tails))
    print(
        "\nThe LSM mitigations keep the flush/compaction tail away, but the\n"
        "injected pauses create a new one — §6's point that ShadowSync is a\n"
        "general phenomenon of recurrent asynchronous events, not a RocksDB\n"
        "quirk."
    )


if __name__ == "__main__":
    main()

"""Property-based fault harness: any seeded random :class:`FaultPlan`
must leave the invariants intact and the run measurable.

The property checked for every plan:

* the run terminates (the simulator reaches ``DURATION`` or aborts with
  an explicit reason — it never hangs);
* no runtime invariant fires (exactly-once accounting, monotonic
  watermarks, checkpoint-barrier legality, LSM consistency);
* the post-fault latency tail is finite — faults may make p50 terrible,
  but never NaN/inf/absent.

On a violation the harness shrinks the plan with
:func:`repro.faults.shrink_failing` and fails with the *minimal*
reproducing plan as JSON, so the culprit fault can be pasted straight
into ``repro run --faults '<json>'``.

A handful of seeds run in tier 1; the wide sweep is ``-m slow`` and
runs in the CI ``faults-smoke`` job.
"""

import json
import math

import pytest

from repro.config import CheckpointConfig, ClusterConfig
from repro.faults import FaultPlan, inject_faults, shrink_failing
from repro.stream.engine import StreamJob
from repro.stream.sources import ConstantSource
from repro.stream.stage import StageSpec

DURATION = 40.0
FAST_SEEDS = (1, 7, 23, 104)
SLOW_SEEDS = tuple(seed for seed in range(40) if seed not in FAST_SEEDS)


def build_job(seed, plan):
    job = StreamJob(
        stages=[
            StageSpec(name="a", parallelism=2, state_entry_bytes=600.0,
                      distinct_keys=3000, selectivity=0.5),
            StageSpec(name="b", parallelism=2, state_entry_bytes=400.0,
                      distinct_keys=1500, selectivity=0.0),
        ],
        source=ConstantSource(1500.0),
        cluster=ClusterConfig(num_nodes=2, cores_per_node=4),
        checkpoint=CheckpointConfig(interval_s=4.0, first_at_s=4.0),
        seed=seed,
    )
    inject_faults(job, plan)
    return job


def violations_of(seed, plan):
    """Run *plan* and return a list of human-readable property failures."""
    job = build_job(seed, plan)
    result = job.run(DURATION)
    problems = [
        f"invariant {v.invariant} at t={v.time:.3f}: {v.message}"
        for v in job.subsystems["invariants"].violations
    ]
    if job.sim.aborted:
        problems.append(f"aborted: {job.sim.abort_reason}")
    tail = result.tail_summary(start=DURATION * 0.5)
    p50 = tail.get("p50")
    if p50 is None or not math.isfinite(p50):
        problems.append(f"non-finite p50: {p50!r}")
    return problems


def check_property(seed):
    plan = FaultPlan.random(seed=seed, duration_s=DURATION, nodes=2)
    problems = violations_of(seed, plan)
    if not problems:
        return

    def still_fails(candidate):
        return bool(violations_of(seed, candidate))

    minimal = shrink_failing(plan, still_fails)
    pytest.fail(
        f"seed {seed}: property violated: {problems}\n"
        f"minimal reproducing plan:\n"
        f"{json.dumps(minimal.to_dict(), indent=2, sort_keys=True)}"
    )


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_random_fault_plans_keep_invariants_fast(seed):
    check_property(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_random_fault_plans_keep_invariants_sweep(seed):
    check_property(seed)


def test_shrink_report_names_the_culprit():
    """The shrink-and-report path itself works: a plan that 'fails'
    whenever it stalls compaction shrinks to just that fault."""
    plan = FaultPlan.random(seed=5, duration_s=DURATION, max_faults=3,
                            kinds=("compaction_stall", "flush_stall",
                                   "slow_disk"))
    spiked = FaultPlan(
        name=plan.name,
        faults=plan.faults + (
            plan.faults[0].__class__(kind="worker_crash", at_s=15.0,
                                     duration_s=2.0, node=0),
        ),
    )

    def still_fails(candidate):
        return any(fault.kind == "worker_crash" for fault in candidate)

    minimal = shrink_failing(spiked, still_fails)
    assert [fault.kind for fault in minimal] == ["worker_crash"]

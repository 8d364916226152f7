"""Determinism goldens for the kernel hot-path optimizations.

Each optimization in the run loop (coalesced accounting, vectorized
fluid reallocation, barriered execution) claims to be *state-identical*
to the scalar/monolithic path it replaced.  These tests hold it to
that: run the same seeded job down both paths and require equal state
digests — floats compared exactly, not approximately.
"""

import pytest

from repro.apps.traffic_job import build_traffic_job
from repro.errors import SimulationError
from repro.sanitize.racedetect import digest_hash, state_digest
from repro.sim import resource as resource_mod
from repro.sim.kernel import Simulator

DURATION = 40.0


def _digest(job):
    return digest_hash(state_digest(job))


def test_coalesced_accounting_matches_per_instance_loops():
    """One batched accounting process per tick == one process per
    instance: bit-identical end state."""
    coalesced = build_traffic_job(seed=5)
    assert coalesced.coalesce_accounting  # default on
    coalesced.run(DURATION)

    scalar = build_traffic_job(seed=5)
    scalar.coalesce_accounting = False
    scalar.run(DURATION)

    assert _digest(coalesced) == _digest(scalar)


def test_vectorized_reallocation_matches_scalar(monkeypatch):
    """The numpy gather/scatter path and the per-flow loop must agree
    bitwise on every float they produce."""
    vectorized = build_traffic_job(seed=7)
    vectorized.run(DURATION)

    # Force every reallocation down the scalar path.
    monkeypatch.setattr(resource_mod, "_VECTOR_MIN_FLOWS", 10**9)
    scalar = build_traffic_job(seed=7)
    scalar.run(DURATION)

    assert _digest(vectorized) == _digest(scalar)


def test_max_events_stops_after_exactly_n_dispatches():
    sim = Simulator(seed=1)
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert fired == [0, 1, 2]
    assert sim.events_fired == 3


def test_max_events_equal_to_queue_is_not_an_error():
    sim = Simulator(seed=1)
    fired = []
    for i in range(4):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_dispatch_stats_do_not_perturb_state():
    """The profiler's per-callback timing must be observation-only."""
    plain = build_traffic_job(seed=13)
    plain.run(24.0)

    profiled = build_traffic_job(seed=13)
    profiled.sim.enable_dispatch_stats()
    profiled.run(24.0)

    assert _digest(plain) == _digest(profiled)
    stats = profiled.sim.dispatch_stats()
    assert stats and all(
        count > 0 and self_s >= 0.0 for count, self_s in stats.values()
    )
    assert sum(count for count, _ in stats.values()) == (
        profiled.sim.events_fired
    )


# ----------------------------------------------------------------------
# the mitigation zoo is deterministic (slow lane: run with `-m slow`)
# ----------------------------------------------------------------------


from repro.core.mitigation import MitigationPlan  # noqa: E402
from repro.lsm import policy_names  # noqa: E402


@pytest.mark.slow
@pytest.mark.parametrize("policy", policy_names())
def test_policy_runs_are_digest_identical(policy):
    """Two identical seeded runs under each zoo policy end in
    bit-identical engine state."""
    digests = []
    for _ in range(2):
        job = build_traffic_job(
            seed=5, mitigation=MitigationPlan(compaction_policy=policy))
        job.run(DURATION)
        digests.append(_digest(job))
    assert digests[0] == digests[1]

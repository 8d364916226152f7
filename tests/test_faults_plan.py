"""Tests for declarative fault plans: validation, serialization,
seeded generation, shrinking, presets, and the loader."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    ALL_FAULT_KINDS,
    ALL_NODES,
    FAULT_KINDS,
    MEMBERSHIP_KINDS,
    PRESET_PLANS,
    FaultPlan,
    FaultSpec,
    load_fault_plan,
    preset_plan,
    shrink_failing,
)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="meteor_strike")
    with pytest.raises(ConfigurationError):
        FaultSpec(at_s=-1.0)
    with pytest.raises(ConfigurationError):
        FaultSpec(duration_s=0.0)
    with pytest.raises(ConfigurationError):
        FaultSpec(factor=0.0)
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="slow_disk", factor=1.5)
    # a backpressure factor above 1 is a rate increase, which is legal
    FaultSpec(kind="kafka_backpressure", factor=1.5)


def test_plan_round_trips_through_dict():
    plan = FaultPlan(
        name="mixed",
        faults=(
            FaultSpec(kind="worker_crash", at_s=10.0, duration_s=2.0, node=1),
            FaultSpec(kind="slow_disk", at_s=20.0, duration_s=3.0,
                      node=ALL_NODES, factor=0.25),
        ),
    )
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone == plan
    assert json.loads(json.dumps(plan.to_dict())) == plan.to_dict()


def test_plan_round_trips_through_serialize_registry():
    plan = preset_plan("chaos")
    # through JSON text, as the result cache stores it
    payload = json.loads(json.dumps(plan.to_dict()))
    assert FaultPlan.from_dict(payload) == plan


def test_plan_coerces_dict_faults():
    plan = FaultPlan(name="p", faults=(
        {"kind": "flush_stall", "at_s": 5.0, "duration_s": 1.0},
    ))
    assert isinstance(plan.faults[0], FaultSpec)
    assert plan.faults[0].end_s == 6.0


def test_random_plans_are_seed_deterministic():
    a = FaultPlan.random(seed=42)
    b = FaultPlan.random(seed=42)
    c = FaultPlan.random(seed=43)
    assert a == b
    assert a != c
    assert 1 <= len(a) <= 3
    for fault in a:
        assert fault.kind in FAULT_KINDS
        assert fault.at_s >= 2.0
        assert fault.end_s <= 40.0 * 0.6 + 5.0 + 1e-9


def test_random_plans_fit_the_run_window():
    for seed in range(50):
        plan = FaultPlan.random(seed=seed, duration_s=30.0)
        for fault in plan:
            assert fault.at_s <= 18.0 + 1e-9
            assert fault.duration_s <= 5.0 + 1e-9


def test_shrink_produces_strictly_simpler_plans():
    plan = FaultPlan.random(seed=7, max_faults=3)
    total = plan_size(plan)
    candidates = list(plan.shrink())
    assert candidates
    for candidate in candidates:
        assert plan_size(candidate) < total


def plan_size(plan: FaultPlan) -> float:
    return len(plan) * 1000.0 + sum(fault.duration_s for fault in plan)


def test_shrink_failing_minimises_to_the_culprit():
    plan = FaultPlan(
        name="big",
        faults=tuple(
            FaultSpec(kind=kind, at_s=5.0 + i, duration_s=4.0, node=0)
            for i, kind in enumerate(
                ("flush_stall", "worker_crash", "compaction_stall")
            )
        ),
    )

    def still_fails(candidate: FaultPlan) -> bool:
        return any(fault.kind == "worker_crash" for fault in candidate)

    minimal = shrink_failing(plan, still_fails)
    assert [fault.kind for fault in minimal] == ["worker_crash"]
    assert minimal.faults[0].duration_s < 4.0


def test_every_preset_builds():
    for name in PRESET_PLANS:
        plan = preset_plan(name)
        assert len(plan) >= 1
        assert plan.name == name
    with pytest.raises(ConfigurationError):
        preset_plan("nope")


def test_load_fault_plan_accepts_every_form(tmp_path):
    plan = preset_plan("crash")
    assert load_fault_plan(plan) is plan
    assert load_fault_plan(plan.to_dict()) == plan
    assert load_fault_plan("crash") == plan
    inline = json.dumps(plan.to_dict())
    assert load_fault_plan(inline) == plan
    path = tmp_path / "plan.json"
    path.write_text(inline, encoding="utf-8")
    assert load_fault_plan(str(path)) == plan
    with pytest.raises(ConfigurationError):
        load_fault_plan("no-such-preset")


# ----------------------------------------------------------------------
# membership entries (node_join / node_leave) on the same timeline
# ----------------------------------------------------------------------

#: ``FaultPlan.random(seed)`` for seeds 1-12, as
#: ``(kind, at_s, duration_s, node, factor)`` rows, recorded before
#: the membership kinds joined the plan.
DEFAULT_POOL_PLANS = {
    1: [("checkpoint_timeout", 20.644, 3.878, 1, 1.594)],
    2: [("worker_crash", 3.867, 4.219, 1, 0.301)],
    3: [("checkpoint_timeout", 13.973, 2.007, 0, 1.33)],
    4: [("compaction_stall", 4.27, 2.131, -1, 0.153)],
    5: [("flush_stall", 10.377, 0.734, 0, 0.427),
        ("flush_stall", 16.277, 4.529, -1, 0.475),
        ("compaction_stall", 18.319, 4.027, 0, 0.772)],
    6: [("worker_crash", 12.671, 1.493, -1, 0.63),
        ("flush_stall", 18.056, 2.217, 0, 0.254),
        ("slow_disk", 23.241, 3.74, 0, 0.318)],
    7: [("flush_stall", 10.686, 0.479, 0, 0.393),
        ("worker_crash", 22.013, 1.27, -1, 0.435)],
    8: [("compaction_stall", 23.17, 0.85, 0, 0.209)],
    9: [("checkpoint_timeout", 10.213, 0.908, 0, 0.875),
        ("slow_disk", 21.763, 0.634, 0, 0.683)],
    10: [("worker_crash", 11.436, 2.996, 1, 0.759),
         ("kafka_backpressure", 19.834, 0.413, 0, 0.45),
         ("kafka_backpressure", 23.924, 0.462, 1, 0.634)],
    11: [("checkpoint_timeout", 12.467, 3.166, -1, 1.059),
         ("checkpoint_timeout", 20.851, 3.961, 0, 0.614)],
    12: [("compaction_stall", 12.616, 3.306, 0, 0.547),
         ("compaction_stall", 16.464, 3.415, -1, 0.109)],
}

#: The same for ``FaultPlan.random(seed, kinds=ALL_FAULT_KINDS)``.
CLUSTER_POOL_PLANS = {
    1: [("flush_stall", 7.612, 2.603, 1, 0.731)],
    2: [("flush_stall", 3.867, 4.219, 1, 0.301)],
    3: [("network_partition", 4.869, 4.601, 0, 0.584)],
    4: [("checkpoint_timeout", 4.27, 2.131, -1, 0.413)],
    5: [("slow_disk", 10.377, 0.734, 0, 0.427),
        ("slow_disk", 16.277, 4.529, -1, 0.475),
        ("checkpoint_timeout", 18.319, 4.027, 0, 1.729)],
    6: [("flush_stall", 12.671, 1.493, -1, 0.63),
        ("node_flap", 19.642, 3.717, 0, 1.0),
        ("node_flap", 23.241, 3.74, 0, 2.0)],
    7: [("compaction_stall", 10.686, 0.479, 0, 0.393),
        ("worker_crash", 22.013, 1.27, -1, 0.435)],
    8: [("kafka_backpressure", 23.17, 0.85, 0, 0.292)],
    9: [("kafka_backpressure", 7.877, 1.134, 1, 0.804),
        ("flush_stall", 9.349, 4.698, 1, 0.236)],
    10: [("compaction_stall", 2.757, 2.578, -1, 0.862),
         ("kafka_backpressure", 2.98, 4.336, 1, 0.69),
         ("worker_crash", 11.436, 2.996, 1, 0.759)],
    11: [("network_partition", 12.467, 3.166, -1, 0.457),
         ("network_partition", 20.851, 3.961, 0, 0.248)],
    12: [("kafka_backpressure", 12.616, 3.306, 0, 0.881),
         ("checkpoint_timeout", 16.464, 3.415, -1, 0.318)],
}


def _plan_dict(seed, rows):
    fields = ("kind", "at_s", "duration_s", "node", "factor")
    return {"name": f"random-{seed}",
            "faults": [dict(zip(fields, row)) for row in rows]}


@pytest.mark.parametrize("pool, kinds", [
    (DEFAULT_POOL_PLANS, None),
    (CLUSTER_POOL_PLANS, ALL_FAULT_KINDS),
], ids=["default", "all-fault-kinds"])
def test_random_plans_did_not_move_when_membership_kinds_arrived(pool, kinds):
    extra = {} if kinds is None else {"kinds": kinds}
    for seed, rows in pool.items():
        plan = FaultPlan.random(seed=seed, **extra)
        assert plan.to_dict() == _plan_dict(seed, rows), seed


def test_membership_kinds_stay_out_of_the_random_pools():
    assert not set(MEMBERSHIP_KINDS) & set(ALL_FAULT_KINDS)
    # a drawn factor is never a whole node count
    with pytest.raises(ConfigurationError):
        FaultPlan.random(seed=1, kinds=MEMBERSHIP_KINDS)


def test_shrink_halves_a_membership_count_but_not_its_duration():
    plan = FaultPlan(name="m", faults=(
        FaultSpec(kind="node_leave", at_s=5.0, duration_s=4.0, factor=3.0),
    ))
    (candidate,) = plan.shrink()
    assert candidate.faults[0].factor == 1.0
    assert candidate.faults[0].duration_s == 4.0
    assert list(candidate.shrink()) == []


def test_one_shrinker_covers_faults_and_membership_entries():
    plan = FaultPlan(name="elastic", faults=(
        FaultSpec(kind="node_join", at_s=10.0, factor=4.0),
        FaultSpec(kind="node_crash", at_s=20.0, duration_s=3.0, node=1),
        FaultSpec(kind="node_leave", at_s=30.0, factor=4.0),
    ))

    def still_fails(candidate: FaultPlan) -> bool:
        kinds = [fault.kind for fault in candidate]
        return "node_join" in kinds and "node_crash" in kinds

    minimal = shrink_failing(plan, still_fails)
    assert [fault.kind for fault in minimal] == ["node_join", "node_crash"]
    join, crash = minimal.faults
    assert join.factor == 1.0
    assert (join.at_s, crash.at_s, crash.node) == (10.0, 20.0, 1)

"""Tests for declarative fault plans: validation, serialization,
seeded generation, shrinking, presets, and the loader."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    ALL_NODES,
    FAULT_KINDS,
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

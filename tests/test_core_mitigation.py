"""Unit tests for mitigation primitives: thresholds, delay, plan."""

import random

import pytest

from repro.core import (
    MitigationPlan,
    RandomizedL0Trigger,
    StaticL0Trigger,
    estimate_drain_time,
)
from repro.errors import ConfigurationError


# ---------------------------------------------------------------- triggers

def test_static_trigger_never_changes():
    trigger = StaticL0Trigger(4)
    values = {trigger() for _ in range(10)}
    trigger.advance()
    values.add(trigger())
    assert values == {4}


def test_randomized_trigger_in_range_and_stable_between_advances():
    trigger = RandomizedL0Trigger(4, 4, random.Random(1))
    current = trigger()
    assert 4 <= current < 8
    assert trigger() == current  # stable until advance
    trigger.advance()
    assert 4 <= trigger() < 8


def test_randomized_trigger_covers_whole_range():
    trigger = RandomizedL0Trigger(4, 4, random.Random(2))
    seen = set()
    for _ in range(200):
        seen.add(trigger())
        trigger.advance()
    assert seen == {4, 5, 6, 7}


def test_randomized_trigger_uniformity():
    """α must be ~uniform — the whole point is spreading the bursts
    evenly over the cycle (Figure 10(b))."""
    trigger = RandomizedL0Trigger(4, 4, random.Random(3))
    counts = {4: 0, 5: 0, 6: 0, 7: 0}
    n = 4000
    for _ in range(n):
        counts[trigger()] += 1
        trigger.advance()
    for value in counts.values():
        assert abs(value - n / 4) < n * 0.05


def test_trigger_validation():
    with pytest.raises(ConfigurationError):
        RandomizedL0Trigger(0, 4, random.Random(0))
    with pytest.raises(ConfigurationError):
        RandomizedL0Trigger(4, 0, random.Random(0))
    with pytest.raises(ConfigurationError):
        StaticL0Trigger(0)


# ---------------------------------------------------------------- delay

def test_drain_time_formula():
    # Q = λ·b·Δt = 15000*0.5*0.7 = 5250; T = Q/5000 = 1.05
    t = estimate_drain_time(15000.0, 0.7, 5000.0, blocked_fraction=0.5)
    assert t == pytest.approx(1.05)


def test_drain_time_validation():
    with pytest.raises(ConfigurationError):
        estimate_drain_time(-1.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        estimate_drain_time(1.0, 1.0, 0.0)


# ---------------------------------------------------------------- plan

def test_baseline_plan_is_all_off():
    plan = MitigationPlan.baseline()
    assert not plan.randomize_compaction_trigger
    assert plan.compaction_delay_s == 0.0
    assert isinstance(plan.l0_trigger_policy(4, random.Random(0)), StaticL0Trigger)


def test_paper_solution_plan():
    plan = MitigationPlan.paper_solution()
    assert plan.randomize_compaction_trigger
    assert plan.compaction_delay_s == 1.0
    assert plan.flush_threads is None and plan.compaction_threads is None
    assert isinstance(plan.l0_trigger_policy(4, random.Random(0)), RandomizedL0Trigger)


def test_full_plan_sets_pool_sizes():
    plan = MitigationPlan.full()
    assert plan.pool_sizes(16, 16) == (16, 4)


def test_pool_size_overrides():
    plan = MitigationPlan(flush_threads=8)
    assert plan.pool_sizes(16, 16) == (8, 16)


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        MitigationPlan(trigger_spread=0)
    with pytest.raises(ConfigurationError):
        MitigationPlan(compaction_delay_s=-1.0)
    with pytest.raises(ConfigurationError):
        MitigationPlan(flush_threads=0)
    with pytest.raises(ConfigurationError):
        MitigationPlan(compaction_threads=0)

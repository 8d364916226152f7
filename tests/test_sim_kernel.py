"""Unit tests for the Simulator kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.events import HIGH_PRIORITY


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_run_executes_in_order_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, lambda: seen.append(("b", sim.now)))
    sim.schedule(1.0, lambda: seen.append(("a", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 2.0)]
    assert sim.now == 2.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    sim.schedule(5.0, lambda: seen.append(5))
    sim.run(until=3.0)
    assert seen == [1]
    assert sim.now == 3.0  # clock advanced exactly to the horizon
    sim.run(until=6.0)
    assert seen == [1, 5]


def test_run_for_is_relative():
    sim = Simulator()
    sim.run_for(4.0)
    assert sim.now == 4.0
    sim.run_for(2.0)
    assert sim.now == 6.0


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.run_for(5.0)
    with pytest.raises(SimulationError):
        sim.schedule(1.0, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_after(-0.1, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain():
        seen.append(sim.now)
        if len(seen) < 3:
            sim.schedule_after(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert seen == [1.0, 2.0, 3.0]


def test_call_soon_runs_at_current_time_after_normal_events():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: (order.append("first"), sim.call_soon(lambda: order.append("soon")))[0])
    sim.schedule(1.0, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "soon"]


def test_high_priority_now_precedes_normal_events_at_same_time():
    sim = Simulator()
    order = []

    def at_one():
        order.append("normal-1")
        sim.schedule(sim.now, lambda: order.append("urgent"),
                     priority=HIGH_PRIORITY)

    sim.schedule(1.0, at_one)
    sim.schedule(1.0, lambda: order.append("normal-2"))
    sim.run()
    # the urgent event still fires after the currently-executing batch
    # was already popped, but before any later-scheduled normal event
    assert order.index("urgent") < order.index("normal-2")


def test_max_events_guard_raises():
    sim = Simulator()

    def loop():
        sim.schedule_after(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(until=1.0, max_events=1000)


def test_event_counter_increments():
    sim = Simulator()
    for i in range(7):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_fired == 7
    assert sim.pending_events == 0


def test_deterministic_rng_streams():
    a = Simulator(seed=42)
    b = Simulator(seed=42)
    assert a.rng.stream("x").random() == b.rng.stream("x").random()
    c = Simulator(seed=43)
    assert a.rng.stream("y").random() != c.rng.stream("y").random()

"""Unit tests for the event queue primitives.

The queue only pushes; :meth:`Simulator.run` pops its heap inline,
skipping cancelled entries and detaching each fired handle.  So every
test schedules through the simulator and dispatches with ``run``.
"""

from repro.sim.events import (
    HIGH_PRIORITY,
    LOW_PRIORITY,
    NORMAL_PRIORITY,
)
from repro.sim.kernel import Simulator


def test_pop_returns_events_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append(3))
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2, 3]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_overrides_scheduling_order_at_equal_times():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("normal"), priority=NORMAL_PRIORITY)
    sim.schedule(1.0, lambda: order.append("low"), priority=LOW_PRIORITY)
    sim.schedule(1.0, lambda: order.append("high"), priority=HIGH_PRIORITY)
    sim.run()
    assert order == ["high", "normal", "low"]


def test_cancelled_event_is_skipped():
    sim = Simulator()
    fired = []
    keep = sim.schedule(1.0, lambda: fired.append("keep"))
    drop = sim.schedule(0.5, lambda: fired.append("drop"))
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert drop.cancelled and not keep.cancelled
    assert sim.events_fired == 1


def test_len_tracks_cancellations():
    sim = Simulator()
    events = [sim.schedule(float(i), lambda: None) for i in range(4)]
    assert sim.pending_events == 4
    events[1].cancel()
    events[1].cancel()  # double-cancel must not double-decrement
    assert sim.pending_events == 3
    events[2].cancel()
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0 and sim.events_fired == 2


def test_peek_time_skips_cancelled_heads():
    """A cancelled head neither fires nor moves the clock."""
    sim = Simulator()
    seen = []
    first = sim.schedule(1.0, lambda: seen.append(sim.now))
    sim.schedule(2.0, lambda: seen.append(sim.now))
    first.cancel()
    sim.run()
    assert seen == [2.0] and sim.now == 2.0


def test_pop_empty_returns_none():
    sim = Simulator()
    sim.run()
    assert sim.events_fired == 0 and sim.now == 0.0
    assert sim.pending_events == 0


def test_event_carries_args():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
    sim.run()
    assert seen == [(1, "x")]


def test_lifo_tie_break_reverses_equal_time_order():
    sim = Simulator(tie_break="lifo")
    order = []
    for i in range(5):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [4, 3, 2, 1, 0]


def test_cancellation_heavy_heap_compacts():
    """When dead entries outnumber live ones past COMPACT_MIN, the heap
    is compacted in place and stays O(live)."""
    sim = Simulator()
    queue = sim._queue
    times = []
    events = [
        sim.schedule(float(i), lambda: times.append(sim.now)) for i in range(2000)
    ]
    assert len(queue._heap) == 2000
    # Cancel 3/4 of the events: crossing the live*2 < heap threshold
    # must shrink the physical heap, not just mark entries dead.
    for event in events[::2]:
        event.cancel()
    for event in events[1::4]:
        event.cancel()
    assert queue.compactions >= 1
    assert sim.pending_events == 500
    # The physical heap stays within 2x the live count (the compaction
    # threshold), never O(total pushed).
    assert len(queue._heap) <= 2 * sim.pending_events
    # Survivors still fire in time order.
    sim.run()
    assert times == sorted(times) and len(times) == 500


def test_small_heaps_never_compact():
    sim = Simulator()
    events = [sim.schedule(float(i), lambda: None) for i in range(100)]
    for event in events:
        event.cancel()
    assert sim._queue.compactions == 0
    assert sim.pending_events == 0
    sim.run()
    assert sim.events_fired == 0 and not sim._queue._heap


def test_compaction_preserves_heap_list_identity():
    """The run loop holds a direct reference to the heap list;
    compaction must mutate it in place."""
    sim = Simulator()
    heap_ref = sim._queue._heap
    fired = []
    events = [
        sim.schedule(float(i), lambda i=i: fired.append(i)) for i in range(1024)
    ]

    def cancel_rest():
        # runs inside the loop: compaction happens under its feet
        for event in events[2:-1]:
            event.cancel()

    sim.schedule(0.5, cancel_rest)
    sim.run()
    assert sim._queue.compactions >= 1
    assert sim._queue._heap is heap_ref
    assert fired == [0, 1, 1023]


def test_live_accounting_survives_compaction_and_pops():
    sim = Simulator()
    events = [sim.schedule(float(i), lambda: None) for i in range(1500)]
    for event in events[:1200]:
        event.cancel()
    assert sim.pending_events == 300
    sim.run()
    assert sim.events_fired == 300 and sim.pending_events == 0


def test_peek_time_sweeps_many_cancelled_heads():
    sim = Simulator()
    seen = []
    doomed = [sim.schedule(float(i), lambda: seen.append("doomed")) for i in range(50)]
    sim.schedule(99.0, lambda: seen.append(sim.now))
    for event in doomed:
        event.cancel()
    sim.run(until=98.0)
    assert seen == [] and sim.pending_events == 1
    sim.run()
    assert seen == [99.0] and sim.pending_events == 0


def test_cancel_after_pop_does_not_corrupt_live_count():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    assert sim.events_fired == 1
    # Cancelling an already-fired handle flips its flag (callers may
    # hold stale handles) but must not touch the queue's live count.
    event.cancel()
    assert event.cancelled
    assert sim.pending_events == 1
    sim.run()
    assert sim.events_fired == 2 and sim.pending_events == 0

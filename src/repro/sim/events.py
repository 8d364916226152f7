"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` couples a firing time with a callback.  Events are
totally ordered by ``(time, priority, sequence)`` so that simultaneous
events fire deterministically in scheduling order unless a priority says
otherwise.  Cancellation is lazy: a cancelled event stays in the heap
until :meth:`repro.sim.kernel.Simulator.run` reaches and drops it, which
keeps cancellation O(1); when dead entries outnumber live ones the heap
is compacted in place so cancellation-heavy workloads (e.g. completion
reschedules) stay O(live) instead of O(pushed).

The heap stores ``(time, priority, seq, event)`` tuples rather than the
events themselves: tuple comparison settles on the unique ``seq`` before
ever reaching the event object, so ordering costs no Python-level
comparison calls — by far the hottest path in large simulations.  The
queue only pushes; the kernel's run loop pops the heap directly.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

#: Default priority for events; lower fires first among equal times.
NORMAL_PRIORITY = 0

#: Priority used for bookkeeping events that must observe the state left
#: behind by all normal events at the same timestamp.
LOW_PRIORITY = 10

#: Priority for control events that must precede normal work at a time.
HIGH_PRIORITY = -10

#: Supported tie-breaking orders among events with equal (time, priority).
#: ``"fifo"`` is the production order (scheduling order); ``"lifo"`` is
#: the race sanitizer's perturbation — a correct model produces the same
#: state under both, so any divergence exposes hidden same-timestamp
#: ordering coupling (see :mod:`repro.sanitize.racedetect`).
TIE_BREAKS = ("fifo", "lifo")


class Event:
    """A scheduled callback.

    Instances are created by :meth:`EventQueue.push` (usually via
    :meth:`repro.sim.kernel.Simulator.schedule`) and should be treated as
    opaque handles whose only user-facing operation is :meth:`cancel`.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "_cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
        queue: Optional[EventQueue] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when its time comes."""
        if not self._cancelled:
            self._cancelled = True
            if self._queue is not None:
                self._queue._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} prio={self.priority} {name} {state}>"


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    ``tie_break`` picks the order among events with equal
    ``(time, priority)``: ``"fifo"`` (default, scheduling order) or
    ``"lifo"`` (reverse scheduling order, the sanitizer's perturbation).
    The flip is implemented by negating the sequence counter, so the
    total order stays strict either way.
    """

    #: Heap size below which cancellation never triggers compaction —
    #: small heaps are cheap to walk and compaction bookkeeping would
    #: dominate.
    COMPACT_MIN = 512

    def __init__(self, tie_break: str = "fifo") -> None:
        if tie_break not in TIE_BREAKS:
            raise ValueError(
                f"unknown tie_break {tie_break!r}; expected one of {TIE_BREAKS}"
            )
        self.tie_break = tie_break
        self._seq_sign = 1 if tie_break == "fifo" else -1
        # Entries are (time, priority, seq, event); seq is unique, so
        # tuple comparison never falls through to the Event object.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count(start=1)
        self._live = 0
        #: Number of in-place heap compactions performed (diagnostics).
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def _note_cancelled(self) -> None:
        self._live -= 1
        heap = self._heap
        if len(heap) >= self.COMPACT_MIN and self._live * 2 < len(heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, keeping list identity.

        In-place (slice assignment) so run loops holding a reference to
        the heap list never observe a stale object.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3]._cancelled]
        heapq.heapify(heap)
        self.compactions += 1

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = NORMAL_PRIORITY,
    ) -> Event:
        """Schedule *callback* at *time* and return its handle."""
        seq = self._seq_sign * next(self._counter)
        event = Event(time, priority, seq, callback, args, queue=self)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

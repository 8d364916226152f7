"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue.  All other
components (CPUs, thread pools, the stream engine, the LSM store's
background jobs) schedule work on one shared ``Simulator``.

The kernel is deliberately small: a monotonically advancing clock, an
event heap, generator-based processes layered on top (see
:mod:`repro.sim.process`), and one run loop.  Determinism
is a first-class property — two runs with the same seed and configuration
produce identical traces, which the test suite relies on.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..trace import Tracer, ensure_tracer
from .events import Event, EventQueue, LOW_PRIORITY, NORMAL_PRIORITY
from .rng import RngRegistry

__all__ = ["Simulator"]


def _dispatch_name(callback: Callable[..., Any]) -> str:
    """Label for one dispatched event in the ``"kernel"`` trace.

    Bound methods of named owners (e.g. :class:`~repro.sim.process.Process`
    wake-ups) get the owner's name appended — all process resumes share
    one ``__qualname__``, and the race sanitizer needs to tell the
    checkpoint coordinator's wake-up apart from an accounting tick when
    it localizes a divergence to two conflicting events.
    """
    name = getattr(callback, "__qualname__", None) or repr(callback)
    owner = getattr(callback, "__self__", None)
    owner_name = getattr(owner, "name", None)
    if isinstance(owner_name, str) and owner_name:
        return f"{name}[{owner_name}]"
    return name


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the per-component RNG registry (see
        :class:`repro.sim.rng.RngRegistry`).
    tracer:
        Root :class:`~repro.trace.Tracer` shared by every component
        built on this simulator (``None`` = the no-op tracer).  Event
        dispatch itself is traced only when the tracer opts into the
        ``"kernel"`` category — one instant per event is far too much
        for routine traces.
    tie_break:
        Ordering among events with equal ``(time, priority)``:
        ``"fifo"`` (default, scheduling order) or ``"lifo"`` — the race
        sanitizer's perturbation mode (see
        :mod:`repro.sanitize.racedetect`).  Correct models produce
        identical state under both.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(
        self,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        tie_break: str = "fifo",
    ) -> None:
        self._now = 0.0
        self._queue = EventQueue(tie_break=tie_break)
        self._running = False
        self._events_fired = 0
        self._aborted = False
        self._abort_reason = ""
        # Resources mutated by the running callback; run() reallocates
        # each once after the callback returns (see
        # ProcessorSharingResource._mark).
        self._unsettled: list = []
        self.rng = RngRegistry(seed)
        self.tracer = ensure_tracer(tracer)
        self._trace_dispatch = self.tracer.enabled and self.tracer.wants("kernel")

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def tie_break(self) -> str:
        """Same-timestamp ordering mode (``"fifo"`` or ``"lifo"``)."""
        return self._queue.tie_break

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def aborted(self) -> bool:
        """Whether :meth:`abort` stopped the last :meth:`run` early."""
        return self._aborted

    @property
    def abort_reason(self) -> str:
        return self._abort_reason

    def abort(self, reason: str = "") -> None:
        """Ask the current :meth:`run` loop to stop before its next event.

        Used by the invariant checker's halt-on-violation mode; the clock
        stays at the abort time instead of advancing to ``until``.
        """
        self._aborted = True
        self._abort_reason = reason

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL_PRIORITY,
    ) -> Event:
        """Schedule *callback(*args)* at absolute simulation *time*."""
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        return self._queue.push(max(time, self._now), callback, args, priority)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL_PRIORITY,
    ) -> Event:
        """Schedule *callback* ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self._now + delay, callback, *args, priority=priority)

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback* at the current time, after pending
        same-time events of normal priority."""
        return self.schedule(self._now, callback, *args, priority=LOW_PRIORITY)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains or the clock would pass *until*.

        When *until* is given, the clock is advanced exactly to *until*
        even if no event lands there, so follow-up calls resume cleanly.
        *max_events* (if given) bounds the number of events executed by
        this call: the loop stops after exactly *max_events* dispatches
        and raises :class:`SimulationError` if more work was still due —
        a guard against event-cascade bugs in user models.

        The loop works on the heap entries directly (one ``heappop`` per
        dispatched or cancelled event, ordering by tuple comparison) —
        this is the simulation's hottest code.

        A processor-sharing resource mutated by a callback (task submits
        and completions) is enlisted rather than reallocated on the
        spot; the loop reallocates every enlisted resource once, in
        enlistment order, right after the callback returns.  A burst of
        same-callback mutations therefore costs one reallocation.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        # The run loop allocates heavily (events, heap tuples, history
        # segments) and nothing in it waits on the collector, so
        # generational passes over the growing object graph are pure
        # cost (~10% of wall time).  Suspend collection for the
        # duration and restore the caller's setting on exit.  The job
        # graph a run leaves behind is one big cycle that the collector
        # frees later, so it is kept small: finished pool jobs drop
        # their callbacks and phases, completed checkpoints hand their
        # snapshots to the restore table.  A dropped 200 s fig12 point
        # then leaves ~20 500 cyclic objects (7 612 FlowSegments of
        # latency history, 3 609 ActivitySpans for the detector), one
        # ~14 ms collection on a 2-vCPU Xeon under Python 3.11.  Were
        # each finished job's closures kept, it would leave ~125 500
        # and take ~60 ms, and the collector's share of a six-point
        # fig12 sweep would rise from ~4 % to ~14 %.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        executed = 0
        queue = self._queue
        heap = queue._heap  # compaction mutates in place, identity is stable
        heappop = heapq.heappop
        bound = None if until is None else until + 1e-12
        tracer = self.tracer
        trace = self._trace_dispatch
        unsettled = self._unsettled
        try:
            while heap and not self._aborted:
                entry = heap[0]
                event = entry[3]
                if event._cancelled:
                    heappop(heap)
                    continue
                etime = entry[0]
                if bound is not None and etime > bound:
                    break
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"run() exceeded max_events={max_events} at t={self._now}"
                    )
                heappop(heap)
                queue._live -= 1
                # Detach so a late cancel() on the fired handle cannot
                # decrement the live count again.
                event._queue = None
                if etime < self._now - 1e-9:
                    raise SimulationError(
                        f"event queue yielded past event {event!r} at now={self._now}"
                    )
                if etime > self._now:
                    self._now = etime
                self._events_fired += 1
                executed += 1
                if trace:
                    tracer.instant(
                        _dispatch_name(event.callback),
                        "kernel",
                        self._now,
                        tid="kernel",
                        priority=event.priority,
                    )
                event.callback(*event.args)
                if unsettled:
                    for resource in unsettled:
                        resource._enlisted = False
                        resource.reallocate()
                    unsettled.clear()
            if until is not None and until > self._now and not self._aborted:
                self._now = until
        finally:
            self._running = False
            for resource in unsettled:
                resource._enlisted = False
            unsettled.clear()
            if gc_was_enabled:
                gc.enable()

    def run_for(self, duration: float) -> None:
        """Run for *duration* simulated seconds from the current time."""
        self.run(until=self._now + duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self._now:.6f} pending={len(self._queue)} "
            f"fired={self._events_fired}>"
        )

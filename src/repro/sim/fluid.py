"""Fluid message-processing flows.

Simulating 60 000 discrete messages per second over 10+ minutes is
infeasible (and unnecessary): at that rate the queueing dynamics are
fluid.  A :class:`FluidFlow` models one stage's message processing on
one worker node as a fluid FIFO queue:

* arrivals at rate ``λ(t)`` messages/s (piecewise constant),
* service requiring ``work_per_message`` CPU-seconds each,
* a parallelism cap (a stage instance is single-threaded),
* a *blocked fraction* ``b(t)`` — the share of this flow's stage
  instances currently frozen by a stop-the-world memtable flush.

Between simulation events all rates are constant, so the backlog evolves
linearly and per-message latency can be recovered *exactly* afterwards
by inverting the cumulative arrival/departure curves (FIFO):
``L(t) = D⁻¹(A(t)) − t`` (see :func:`repro.metrics.percentiles`).

The flow integrates its backlog during the run because its CPU demand
depends on it: an empty queue only asks for ``λ · work_per_message``
cores, a backlogged queue asks for its full parallelism cap.  This is
what turns a compaction burst into a millibottleneck — the flow's fair
share drops below its keep-up demand and the backlog takes off.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

import numpy as np

from ..errors import SimulationError
from .events import Event
from .kernel import Simulator

__all__ = ["FlowSegment", "FlowHistory", "FluidFlow"]

_EPS = 1e-9

#: Relative change in output rate below which downstream stages are not
#: re-notified; bounds same-timestamp event cascades between coupled
#: flows on a shared CPU.
_NOTIFY_TOLERANCE = 2e-3

#: Relative hysteresis on arrival-rate updates.  Coupled flows sharing a
#: CPU can otherwise ping-pong sub-percent rate adjustments through the
#: pipeline forever at a single timestamp (flow A's share shifts flow
#: B's output, which shifts A's downstream arrival, ...).  Ignoring
#: changes below this band makes the propagation a contraction.
_ARRIVAL_HYSTERESIS = 5e-3


class FlowSegment:
    """One piecewise-constant interval of a flow's recorded history."""

    __slots__ = ("time", "arrival_rate", "serve_rate", "queue", "blocked", "alloc")

    def __init__(
        self,
        time: float,
        arrival_rate: float,
        serve_rate: float,
        queue: float,
        blocked: float,
        alloc: float,
    ) -> None:
        self.time = time
        self.arrival_rate = arrival_rate
        self.serve_rate = serve_rate
        self.queue = queue
        self.blocked = blocked
        self.alloc = alloc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlowSegment t={self.time:.3f} λ={self.arrival_rate:.1f} "
            f"μ={self.serve_rate:.1f} Q={self.queue:.1f} b={self.blocked:.2f}>"
        )


class FlowHistory(NamedTuple):
    """A flow's recorded history as parallel numpy arrays.

    The post-run analysis (latency inversion, queue timelines) samples
    the same history many times on different grids; extracting the
    per-segment attributes into arrays once — instead of per analysis
    call — is what :meth:`FluidFlow.history` caches.
    """

    times: np.ndarray
    arrival: np.ndarray
    serve: np.ndarray
    queue: np.ndarray


class FluidFlow:
    """An elastic message-processing consumer on a shared resource."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        work_per_message: float,
        max_parallelism: float,
    ) -> None:
        if work_per_message <= 0:
            raise SimulationError(f"flow {name!r}: work_per_message must be > 0")
        if max_parallelism <= 0:
            raise SimulationError(f"flow {name!r}: max_parallelism must be > 0")
        self.sim = sim
        self.name = name
        self.work_per_message = work_per_message
        self.max_parallelism = max_parallelism

        self.arrival_rate = 0.0
        self.blocked_fraction = 0.0
        self._queue = 0.0

        #: Exact record accounting (messages, fluid): every sync adds the
        #: integrated in/outflow here, so ``total_arrived + replayed ==
        #: total_served + dropped + queue`` holds identically — the
        #: exactly-once invariant checked under fault injection.
        self.total_arrived = 0.0
        self.total_served = 0.0
        self.dropped_messages = 0.0
        self.replayed_messages = 0.0

        self._resource = None
        self._alloc = 0.0
        self._serve_rate = 0.0
        self._last_sync = sim.now
        self._empty_event: Optional[Event] = None
        self._last_notified_output = 0.0

        #: Recorded piecewise history for post-run latency inversion.
        self.segments: List[FlowSegment] = []
        self._history: Optional[FlowHistory] = None
        #: Callbacks receiving the new output (served) rate in msgs/s.
        self.output_listeners: List[Callable[[float], None]] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _attached(self, resource) -> None:
        if self._resource is not None:
            raise SimulationError(f"flow {self.name!r} already attached")
        self._resource = resource
        self._last_sync = self.sim.now

    # ------------------------------------------------------------------
    # external control
    # ------------------------------------------------------------------

    def set_arrival_rate(self, rate: float) -> None:
        """Change the input rate (msgs/s); triggers reallocation.

        Sub-hysteresis changes are absorbed (see ``_ARRIVAL_HYSTERESIS``).
        """
        if rate < 0:
            raise SimulationError(f"flow {self.name!r}: negative arrival rate")
        band = _ARRIVAL_HYSTERESIS * max(self.arrival_rate, 10.0)
        if abs(rate - self.arrival_rate) < band:
            return
        self.sync(self.sim.now)
        self.arrival_rate = rate
        self._request_realloc()

    def set_blocked_fraction(self, blocked: float) -> None:
        """Change the share of instances frozen by stop-the-world flush."""
        blocked = min(1.0, max(0.0, blocked))
        if abs(blocked - self.blocked_fraction) < _EPS:
            return
        self.sync(self.sim.now)
        self.blocked_fraction = blocked
        self._request_realloc()

    def _request_realloc(self) -> None:
        if self._resource is not None:
            self._resource.request_reallocation()

    # ------------------------------------------------------------------
    # resource protocol (demand, serve rate and wake-ups are set by
    # ProcessorSharingResource.reallocate)
    # ------------------------------------------------------------------

    @property
    def queue(self) -> float:
        """Current backlog in messages (computed live)."""
        elapsed = self.sim.now - self._last_sync
        if elapsed <= 0:
            return self._queue
        drift = (self.arrival_rate - self._serve_rate) * elapsed
        return max(0.0, self._queue + drift)

    def sync(self, now: float) -> None:
        """Integrate the backlog up to *now* at the current rates."""
        elapsed = now - self._last_sync
        if elapsed > 0:
            inflow = self.arrival_rate * elapsed
            outflow = self._serve_rate * elapsed
            served = min(outflow, self._queue + inflow)
            self.total_arrived += inflow
            self.total_served += served
            self._queue = max(0.0, self._queue + inflow - outflow)
        self._last_sync = now

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _record_segment(self, now: float) -> None:
        self._history = None  # array cache is stale once history grows
        segment = FlowSegment(
            now,
            self.arrival_rate,
            self._serve_rate,
            self.queue,
            self.blocked_fraction,
            self._alloc,
        )
        if self.segments and abs(self.segments[-1].time - now) < _EPS:
            self.segments[-1] = segment
        else:
            self.segments.append(segment)

    def _on_queue_empty(self) -> None:
        self._empty_event = None
        self.sync(self.sim.now)
        # Credit the numerical residue to served before snapping to empty,
        # or the record-accounting balance drifts by the rounding error.
        self.total_served += self._queue
        self._queue = 0.0
        self._request_realloc()

    # ------------------------------------------------------------------
    # fault injection (crash / recovery)
    # ------------------------------------------------------------------

    def drop_backlog(self) -> float:
        """Discard the queued backlog (a worker crash loses its inputs).

        Returns the number of messages dropped; they are tracked in
        ``dropped_messages`` so record accounting stays exact.
        """
        self.sync(self.sim.now)
        dropped = self._queue
        self._queue = 0.0
        self.dropped_messages += dropped
        self._request_realloc()
        return dropped

    def add_backlog(self, messages: float) -> None:
        """Re-enqueue *messages* (source replay after a restore)."""
        if messages < 0:
            raise SimulationError(
                f"flow {self.name!r}: cannot add negative backlog {messages}"
            )
        if messages == 0:
            return
        self.sync(self.sim.now)
        self._queue += messages
        self.replayed_messages += messages
        self._request_realloc()

    def accounting_balance(self) -> float:
        """``arrived + replayed − served − dropped − queued`` as of now.

        Zero (up to float rounding) whenever no records have leaked.
        """
        self.sync(self.sim.now)
        return (self.total_arrived + self.replayed_messages
                - self.total_served - self.dropped_messages - self._queue)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def serve_rate(self) -> float:
        """Current departure rate in msgs/s."""
        return self._serve_rate

    @property
    def allocation(self) -> float:
        """Current resource units granted."""
        return self._alloc

    def queue_at(self, time: float) -> float:
        """Backlog (messages) at an arbitrary past *time*."""
        queue = 0.0
        previous: Optional[FlowSegment] = None
        for segment in self.segments:
            if segment.time > time:
                break
            previous = segment
        if previous is None:
            return 0.0
        elapsed = time - previous.time
        queue = previous.queue + (previous.arrival_rate - previous.serve_rate) * elapsed
        return max(0.0, queue)

    def history(self) -> FlowHistory:
        """The recorded segments as cached numpy arrays.

        Built lazily on first use (normally after :meth:`finalize`) and
        invalidated whenever a new segment is recorded.
        """
        if self._history is None:
            segments = self.segments
            self._history = FlowHistory(
                times=np.array([s.time for s in segments], dtype=float),
                arrival=np.array([s.arrival_rate for s in segments], dtype=float),
                serve=np.array([s.serve_rate for s in segments], dtype=float),
                queue=np.array([s.queue for s in segments], dtype=float),
            )
        return self._history

    def finalize(self, end_time: float) -> None:
        """Close the recorded history at *end_time* (end of run)."""
        self.sync(end_time)
        self._record_segment(end_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FluidFlow {self.name!r} λ={self.arrival_rate:.1f} "
            f"Q={self.queue:.1f} alloc={self._alloc:.2f}>"
        )

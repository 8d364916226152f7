"""Source-side admission control: a fluid token-bucket load shedder.

The shedder sits between the source (and any backpressure fault that
manipulates it) and the stage-0 flows: every source-rate change passes
through :meth:`LoadShedder.offer`, which returns the *admitted* rate.
Disengaged it is a pure pass-through — no events, no state drift — so
a healthy guarded run is trajectory-identical to an unguarded one.

Engaged (by the SLO guard tripping into degraded mode) it becomes a
token bucket in fluid form: a burst allowance of
``limit_rate * burst_s`` messages is admitted at the full offered
rate; once the bucket drains, admission clamps to ``limit_rate`` and
the excess ``offered - limit`` is *shed* — counted exactly as the
integral of the excess rate, never enqueued, so queues cannot blow up
while shedding is active.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..sim.kernel import Simulator

__all__ = ["SHED_RATE_FACTOR", "SHED_BURST_S", "LoadShedder"]

#: Token-bucket fill rate while engaged, as a fraction of the source's
#: steady rate.
SHED_RATE_FACTOR = 0.6
#: Bucket capacity in seconds of the fill rate (the burst admitted at
#: the full offered rate before shedding starts).
SHED_BURST_S = 1.0


class LoadShedder:
    """Token-bucket admission control over the job's source rate."""

    def __init__(
        self,
        sim: Simulator,
        limit_rate: float,
        burst_s: float = SHED_BURST_S,
        name: str = "admission",
    ) -> None:
        self.sim = sim
        self.name = name
        #: Sustained admission rate while engaged (msgs/s).
        self.limit_rate = limit_rate
        #: Bucket capacity in messages.
        self.capacity = limit_rate * burst_s
        self.tokens = self.capacity
        self.engaged = False
        self.engagements = 0
        #: Current offered (pre-shedding) and admitted source rates.
        self.offered = 0.0
        self.admitted = 0.0
        #: Exact count of messages shed (integral of offered-admitted).
        self.shed_messages = 0.0
        #: ``(start, end)`` spans during which shedding was engaged.
        self.windows: List[Tuple[float, float]] = []
        #: Applies an admitted-rate change to the job's stage-0 flows;
        #: installed by the engine (``StreamJob._apply_source_rate``).
        self.apply_rate: Optional[Callable[[float], None]] = None
        self._window_start: Optional[float] = None
        self._last_sync = sim.now
        self._exhaust_event = None

    # ------------------------------------------------------------------
    # engine-facing path (every source-rate change goes through here)
    # ------------------------------------------------------------------

    def offer(self, rate: float) -> float:
        """Record the new offered rate; return the admitted rate."""
        now = self.sim.now
        self._sync(now)
        self.offered = rate
        self.admitted = self._target_admitted()
        self._reschedule(now)
        return self.admitted

    # ------------------------------------------------------------------
    # guard-facing controls
    # ------------------------------------------------------------------

    def engage(self) -> None:
        """Start shedding (degraded mode): refill the burst bucket."""
        if self.engaged:
            return
        now = self.sim.now
        self._sync(now)
        self.engaged = True
        self.engagements += 1
        self.tokens = self.capacity
        self._window_start = now
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "shed-engage", "resilience", now, tid=self.name,
                limit_rate=self.limit_rate, offered=self.offered,
                burst_tokens=self.tokens,
            )
        self._recompute(now)

    def disengage(self) -> None:
        """Stop shedding (recovery): admit the full offered rate again."""
        if not self.engaged:
            return
        now = self.sim.now
        self._sync(now)
        self.engaged = False
        if self._window_start is not None:
            self.windows.append((self._window_start, now))
            self._window_start = None
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "shed-disengage", "resilience", now, tid=self.name,
                shed_messages=self.shed_messages,
            )
        self._recompute(now)

    def finalize(self, now: float) -> None:
        """Close the books at end of run (open windows, final integral)."""
        self._sync(now)
        if self.engaged and self._window_start is not None:
            self.windows.append((self._window_start, now))
            self._window_start = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _sync(self, now: float) -> None:
        dt = now - self._last_sync
        self._last_sync = now
        if dt <= 0 or not self.engaged:
            return
        excess = max(0.0, self.offered - self.limit_rate)
        if self.tokens > 0.0:
            self.tokens = max(0.0, self.tokens - excess * dt)
        else:
            # admitted is clamped at the limit: the excess is shed
            self.shed_messages += excess * dt

    def _target_admitted(self) -> float:
        if not self.engaged or self.tokens > 0.0:
            return self.offered
        return min(self.offered, self.limit_rate)

    def _recompute(self, now: float) -> None:
        admitted = self._target_admitted()
        if admitted != self.admitted:
            self.admitted = admitted
            if self.apply_rate is not None:
                self.apply_rate(admitted)
        self._reschedule(now)

    def _reschedule(self, now: float) -> None:
        if self._exhaust_event is not None:
            self._exhaust_event.cancel()
            self._exhaust_event = None
        if not self.engaged or self.tokens <= 0.0:
            return
        excess = self.offered - self.limit_rate
        if excess <= 0.0:
            return
        self._exhaust_event = self.sim.schedule_after(
            self.tokens / excess, self._exhausted
        )

    def _exhausted(self) -> None:
        now = self.sim.now
        self._exhaust_event = None
        self._sync(now)
        self.tokens = 0.0
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "shed-exhausted", "resilience", now, tid=self.name,
                offered=self.offered, limit_rate=self.limit_rate,
            )
        self._recompute(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LoadShedder {self.name!r} engaged={self.engaged} "
            f"offered={self.offered:.1f} admitted={self.admitted:.1f}>"
        )

"""The SLO guard: closed-loop overload detection and graceful degradation.

:class:`SLOGuard` samples the running job every ``SAMPLE_INTERVAL_S``:
total queue depth across all stage flows, per-node CPU saturation, and
an *estimated* end-to-end latency (per-stage backlog over effective
drain rate).  The windowed p99 of that estimate, compared against
``LATENCY_SLO_S`` with consecutive-sample hysteresis, drives a two-mode
state machine:

``normal`` → ``degraded`` (trip)
    engage the token-bucket load shedder, shrink every compaction pool
    to ``compaction_threads_degraded`` threads, and stretch the
    checkpoint interval by ``checkpoint_stretch``;
``degraded`` → ``normal`` (recover)
    undo all three, automatically, once the tail has stayed below
    ``RECOVERY_FACTOR × LATENCY_SLO_S`` for ``RECOVERY_SAMPLES``
    samples.

Every sample is a pure read (``FluidFlow.queue`` is computed live
without mutation), so a guard that never trips leaves the simulated
trajectory byte-identical to an unguarded run.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from ..sim.process import spawn
from .config import ResilienceConfig
from .shedding import LoadShedder

__all__ = ["SLOGuard"]

#: Seconds between guard samples (queue depths, CPU, est. latency).
SAMPLE_INTERVAL_S = 0.25
#: Width of the sliding window the p99 latency estimate is taken over.
LATENCY_WINDOW_S = 5.0
#: The latency SLO: windowed-p99 estimated end-to-end latency above
#: this marks a sample as overloaded.
LATENCY_SLO_S = 1.5
#: Consecutive overloaded samples before tripping into degraded mode.
TRIP_SAMPLES = 3
#: Consecutive healthy samples before recovering to normal mode.
RECOVERY_SAMPLES = 8
#: Hysteresis: recovery requires the windowed p99 to fall below
#: ``RECOVERY_FACTOR * LATENCY_SLO_S``, not merely below the SLO.
RECOVERY_FACTOR = 0.5


class SLOGuard:
    """Samples the job and drives degraded-mode actuators."""

    def __init__(
        self, job, config: ResilienceConfig, shedder: Optional[LoadShedder] = None
    ) -> None:
        self.job = job
        self.sim = job.sim
        self.config = config
        self.shedder = shedder
        self.mode = "normal"
        self.trips = 0
        #: ``(mode, start, end)`` spans; the open span has ``end=None``
        #: until :meth:`finalize`.
        self.mode_windows: List[list] = []
        #: Every actuation, as plain dicts (summaries, tests).
        self.actions: List[dict] = []
        self.samples_taken = 0
        self.last_sample: Optional[dict] = None
        #: Largest total backlog (messages) ever sampled — the soak
        #: harness's queue-blow-up check.
        self.max_queue_messages = 0.0
        self._window = deque()  # (time, estimated latency)
        self._overloaded_streak = 0
        self._healthy_streak = 0
        self._pool_sizes: dict = {}
        self._mode_started: Optional[float] = None

    def install(self) -> SLOGuard:
        spawn(self.sim, self._loop(), name="slo-guard")
        return self

    def _loop(self):
        while True:
            yield SAMPLE_INTERVAL_S
            self._sample()

    # ------------------------------------------------------------------
    # sampling (pure reads)
    # ------------------------------------------------------------------

    def _estimate_latency(self) -> float:
        """Sum over stages of worst-node backlog drain time.

        The backlog is divided by the flow's *best-case* drain rate
        (``max_parallelism / work_per_message``), not the instantaneous
        serve rate: a sub-second flush block drops the serve rate to
        ~zero while accumulating only a tiny queue, and dividing by the
        depressed rate would report routine flushes as overload.  Under
        real overload the backlog grows without bound, so the optimistic
        divisor still crosses any SLO.
        """
        total = 0.0
        for stage in self.job.stages:
            worst = 0.0
            for flow in stage.flows.values():
                q = flow.queue
                if q <= 1e-9:
                    continue
                nominal = flow.max_parallelism / flow.work_per_message
                worst = max(worst, q / max(nominal, 1e-9))
            total += worst
        return total + self.job.cost.base_latency_seconds

    def _queue_total(self) -> float:
        return sum(
            flow.queue for stage in self.job.stages for flow in stage.flows.values()
        )

    def _cpu_fraction(self) -> float:
        """Highest current per-node CPU usage fraction."""
        worst = 0.0
        for node in self.job.nodes:
            cpu = node.cpu
            if cpu.util_segments and cpu.capacity > 0:
                worst = max(worst, cpu.util_segments[-1][1] / cpu.capacity)
        return worst

    def _windowed_p99(self, now: float) -> float:
        horizon = now - LATENCY_WINDOW_S
        while self._window and self._window[0][0] < horizon:
            self._window.popleft()
        if not self._window:
            return 0.0
        values = sorted(v for _t, v in self._window)
        index = min(len(values) - 1, int(0.99 * len(values)))
        return values[index]

    def _sample(self) -> None:
        now = self.sim.now
        est = self._estimate_latency()
        self._window.append((now, est))
        p99 = self._windowed_p99(now)
        queue_total = self._queue_total()
        cpu = self._cpu_fraction()
        self.samples_taken += 1
        self.max_queue_messages = max(self.max_queue_messages, queue_total)
        self.last_sample = {
            "time": now,
            "estimated_latency_s": est,
            "p99_latency_s": p99,
            "queue_messages": queue_total,
            "cpu_fraction": cpu,
        }
        if self.mode == "normal":
            overloaded = p99 > LATENCY_SLO_S
            self._overloaded_streak = self._overloaded_streak + 1 if overloaded else 0
            if self._overloaded_streak >= TRIP_SAMPLES:
                self._trip(now)
        else:
            healthy = p99 < RECOVERY_FACTOR * LATENCY_SLO_S
            self._healthy_streak = self._healthy_streak + 1 if healthy else 0
            if self._healthy_streak >= RECOVERY_SAMPLES:
                self._recover(now)

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------

    def _trip(self, now: float) -> None:
        self.mode = "degraded"
        self.trips += 1
        self._overloaded_streak = 0
        self._healthy_streak = 0
        self._mode_started = now
        self.mode_windows.append(["degraded", now, None])
        if self.shedder is not None:
            self.shedder.engage()
        for node in self.job.nodes:
            pool = node.compaction_pool
            if pool.size > self.config.compaction_threads_degraded:
                self._pool_sizes[pool.name] = pool.size
                pool.resize(self.config.compaction_threads_degraded)
        self.job.coordinator.interval_scale = self.config.checkpoint_stretch
        action = dict(self.last_sample or {}, time=now, action="slo-trip")
        self.actions.append(action)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "slo-trip", "resilience", now, tid="slo-guard",
                p99_latency_s=action.get("p99_latency_s"),
                queue_messages=action.get("queue_messages"),
                cpu_fraction=action.get("cpu_fraction"),
            )

    def _recover(self, now: float) -> None:
        self.mode = "normal"
        self._overloaded_streak = 0
        self._healthy_streak = 0
        if self.mode_windows and self.mode_windows[-1][2] is None:
            self.mode_windows[-1][2] = now
        self._mode_started = None
        if self.shedder is not None:
            self.shedder.disengage()
        for node in self.job.nodes:
            pool = node.compaction_pool
            original = self._pool_sizes.pop(pool.name, None)
            if original is not None:
                pool.resize(original)
        self.job.coordinator.interval_scale = 1.0
        action = dict(self.last_sample or {}, time=now, action="slo-recover")
        self.actions.append(action)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "slo-recover", "resilience", now, tid="slo-guard",
                p99_latency_s=action.get("p99_latency_s"),
            )

    def finalize(self, now: float) -> None:
        if self.mode_windows and self.mode_windows[-1][2] is None:
            self.mode_windows[-1][2] = now

    @property
    def degraded_windows(self) -> List[tuple]:
        """Closed ``("degraded", start, end)`` spans for attribution."""
        return [
            (mode, start, end)
            for mode, start, end in self.mode_windows
            if end is not None
        ]

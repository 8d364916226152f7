"""Rate-controlled workload sources.

Sources drive the first stage's arrival rate.  :class:`ConstantSource`
is the paper's steady 60 k msg/s; :class:`PiecewiseSource` supports
ramp-up/initialization phases (whose uneven flush pressure is what
desynchronizes L0 counters between stages, §3.3).
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.kernel import Simulator

__all__ = [
    "ConstantSource",
    "PiecewiseSource",
    "DiurnalSource",
    "ClosedLoopSource",
]


class ConstantSource:
    """A fixed message rate from t = 0."""

    def __init__(self, rate: float) -> None:
        if rate < 0:
            raise ConfigurationError("source rate must be >= 0")
        self.rate = rate

    def start(self, sim: Simulator, set_rate: Callable[[float], None]) -> None:
        sim.call_soon(set_rate, self.rate)

    def steady_rate(self) -> float:
        return self.rate


class PiecewiseSource:
    """A piecewise-constant rate schedule ``[(time, rate), ...]``."""

    def __init__(self, schedule: Sequence[Tuple[float, float]]) -> None:
        if not schedule:
            raise ConfigurationError("schedule must not be empty")
        times = [t for t, _r in schedule]
        if times != sorted(times):
            raise ConfigurationError("schedule times must be ascending")
        if any(r < 0 for _t, r in schedule):
            raise ConfigurationError("rates must be >= 0")
        self.schedule: List[Tuple[float, float]] = list(schedule)

    def start(self, sim: Simulator, set_rate: Callable[[float], None]) -> None:
        for time, rate in self.schedule:
            sim.schedule(time, set_rate, rate)

    def steady_rate(self) -> float:
        """The final (steady-state) rate of the schedule."""
        return self.schedule[-1][1]


class DiurnalSource:
    """A day/night load curve with optional flash-crowd bursts.

    The rate oscillates between ``base_rate`` (the daytime peak) and
    ``trough_factor * base_rate`` (the nightly trough) on a sinusoid of
    period ``period_s``, discretized into ``steps_per_period``
    piecewise-constant segments so the fluid engine sees clean rate
    events.  Each burst ``(at_s, duration_s, multiplier)`` — a flash
    crowd — multiplies whatever the diurnal curve says during its
    window.  The curve starts at the peak (t = 0 is "noon").
    """

    def __init__(
        self,
        base_rate: float,
        period_s: float,
        trough_factor: float = 0.3,
        bursts: Sequence[Tuple[float, float, float]] = (),
        steps_per_period: int = 24,
    ) -> None:
        if base_rate < 0:
            raise ConfigurationError("base_rate must be >= 0")
        if period_s <= 0:
            raise ConfigurationError("period_s must be > 0")
        if not 0.0 <= trough_factor <= 1.0:
            raise ConfigurationError("trough_factor must be in [0, 1]")
        if steps_per_period < 2:
            raise ConfigurationError("steps_per_period must be >= 2")
        for at_s, duration_s, multiplier in bursts:
            if at_s < 0 or duration_s <= 0 or multiplier <= 0:
                raise ConfigurationError(
                    "burst entries must be (at_s >= 0, duration_s > 0, "
                    "multiplier > 0)"
                )
        self.base_rate = base_rate
        self.period_s = period_s
        self.trough_factor = trough_factor
        self.bursts = sorted(bursts)
        self.steps_per_period = steps_per_period

    def _diurnal_rate(self, time: float) -> float:
        """The (step-quantized) diurnal curve sampled at *time*."""
        step = self.period_s / self.steps_per_period
        phase = 2.0 * math.pi * (math.floor(time / step) * step) / self.period_s
        mid = (1.0 + self.trough_factor) / 2.0
        amplitude = (1.0 - self.trough_factor) / 2.0
        return self.base_rate * (mid + amplitude * math.cos(phase))

    def _rate_at(self, time: float) -> float:
        rate = self._diurnal_rate(time)
        for at_s, duration_s, multiplier in self.bursts:
            if at_s <= time < at_s + duration_s:
                rate *= multiplier
        return rate

    def _change_points(self, horizon_s: float) -> List[float]:
        step = self.period_s / self.steps_per_period
        points = {0.0}
        t = 0.0
        while t < horizon_s:
            points.add(t)
            t += step
        for at_s, duration_s, _multiplier in self.bursts:
            points.add(at_s)
            points.add(at_s + duration_s)
        return sorted(p for p in points if p <= horizon_s)

    def start(self, sim: Simulator, set_rate: Callable[[float], None]) -> None:
        # Cover a generous horizon; runs longer than 16 periods keep the
        # last scheduled rate (the engine never re-asks the source).
        horizon = 16.0 * self.period_s
        for at_s, duration_s, _m in self.bursts:
            horizon = max(horizon, at_s + duration_s + self.period_s)
        for time in self._change_points(horizon):
            sim.schedule(time, set_rate, self._rate_at(time))

    def steady_rate(self) -> float:
        """Provision for the daytime peak, as a real deployment would."""
        return self.base_rate


class ClosedLoopSource:
    """A fixed population of request/response clients.

    Open-loop sources (the classes above) push a rate regardless of what
    the system does; a *closed-loop* client waits for its previous
    request to complete, thinks for ``think_time_s``, then issues the
    next one — so the offered rate self-limits when latency grows
    (coordinated omission).  The fluid equivalent: every ``interval_s``
    the source re-estimates the response time from the ingest stages'
    backlog (Little's law) and sets

        rate = clients / (think_time_s + response_time)

    which converges deterministically because the estimate only uses
    simulation state at the control tick.
    """

    def __init__(
        self,
        clients: int,
        think_time_s: float,
        base_service_s: float = 0.001,
        interval_s: float = 1.0,
        horizon_s: float = 3600.0,
    ) -> None:
        if clients < 1:
            raise ConfigurationError("clients must be >= 1")
        if think_time_s <= 0:
            raise ConfigurationError("think_time_s must be > 0")
        if base_service_s <= 0:
            raise ConfigurationError("base_service_s must be > 0")
        if interval_s <= 0:
            raise ConfigurationError("interval_s must be > 0")
        self.clients = clients
        self.think_time_s = think_time_s
        self.base_service_s = base_service_s
        self.interval_s = interval_s
        self.horizon_s = horizon_s
        self._job = None
        self._last_rate = self.steady_rate()
        #: ``(time, rate)`` at every control tick — the record of how
        #: hard the population actually pushed (coordinated-omission
        #: analysis wants exactly this).
        self.rate_history: List[Tuple[float, float]] = []

    def bind(self, job) -> None:
        """Called by :meth:`StreamJob.run` so the control loop can
        observe the ingest stages' backlog."""
        self._job = job

    def _response_time(self, now: float) -> float:
        """Base service time plus queueing delay estimated from the
        source-fed stages' current backlog via Little's law."""
        if self._job is None:
            return self.base_service_s
        backlog = 0.0
        for index in self._job._source_fed:
            stage = self._job.stages[index]
            for node_name in stage.nodes():
                backlog += stage.flows[node_name].queue_at(now)
        throughput = max(self._last_rate, 1.0)
        return self.base_service_s + backlog / throughput

    def _tick(self, sim: Simulator, set_rate: Callable[[float], None]) -> None:
        response = self._response_time(sim.now)
        rate = self.clients / (self.think_time_s + response)
        self._last_rate = rate
        self.rate_history.append((sim.now, rate))
        set_rate(rate)
        if sim.now + self.interval_s <= self.horizon_s:
            sim.schedule_after(self.interval_s, self._tick, sim, set_rate)

    def start(self, sim: Simulator, set_rate: Callable[[float], None]) -> None:
        sim.call_soon(self._tick, sim, set_rate)

    def steady_rate(self) -> float:
        """The no-queueing throughput of the client population."""
        return self.clients / (self.think_time_s + self.base_service_s)

"""Delayed compaction (§4.1, second technique).

Flush stalls message processing (stop-the-world), queueing
``Q = λ · Δt`` messages (Eq. 1).  If compaction starts immediately the
queue compounds; postponing it by the drain-out time (Eq. 2)

    T = Q / C_drain = λ · Δt / C_drain

lets the backlog empty first.  ``C_drain`` is the rate at which queued
messages disappear once flushing ends — the processing capability left
after steady arrivals are served.  The paper measures λ, Δt and C online
and lands on T ≈ 0.8–1 s, rounding to a 1 s delay.  Here the state
backend always waits the fixed ``MitigationPlan.compaction_delay_s``;
:func:`estimate_drain_time` computes the T to choose for it.
"""

from __future__ import annotations

from ..errors import ConfigurationError

__all__ = ["estimate_drain_time"]


def estimate_drain_time(
    arrival_rate: float,
    flush_duration: float,
    drain_rate: float,
    blocked_fraction: float = 1.0,
) -> float:
    """Eq. (1)+(2): seconds until the flush-induced backlog drains.

    Parameters
    ----------
    arrival_rate:
        λ — input messages/s (per node or per system, as long as
        *drain_rate* uses the same scope).
    flush_duration:
        Δt — how long the flush cluster stalls processing.
    drain_rate:
        Net backlog-reduction rate once processing resumes
        (service capacity minus steady arrivals).
    blocked_fraction:
        Average fraction of instances stalled during Δt (1.0 when the
        flush freezes everything at once).
    """
    if arrival_rate < 0 or flush_duration < 0:
        raise ConfigurationError("λ and Δt must be non-negative")
    if drain_rate <= 0:
        raise ConfigurationError("drain rate must be positive")
    queued = arrival_rate * blocked_fraction * flush_duration
    return queued / drain_rate

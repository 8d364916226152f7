"""Reusable resilience policies: retry with backoff, circuit breaking.

These are deliberately mechanism-only primitives — they know nothing
about flushes or checkpoints.  The wiring (which operations retry,
what trips the breaker) lives with the caller: the cluster layer's
state transfers (:mod:`repro.cluster.coordinator`).  All randomness (backoff jitter) comes from a caller-owned
``random.Random`` so retries are exactly reproducible under the
simulator's named RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["RetryPolicy", "CircuitBreaker"]


@dataclass(frozen=True, kw_only=True)
class RetryPolicy:
    """Exponential backoff with bounded, jittered delays.

    Attempt *n* (1-based) that fails is retried after
    ``min(base_delay_s * multiplier**(n-1), max_delay_s)`` seconds,
    scaled by a uniform jitter in ``[1-jitter, 1+jitter]``.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.25
    multiplier: float = 2.0
    max_delay_s: float = 4.0
    jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("retry: max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("retry: delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError("retry: multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("retry: jitter must be in [0, 1)")

    def delay_s(self, attempt: int, rng=None) -> float:
        """Backoff before retrying after failed attempt *attempt*."""
        if attempt < 1:
            raise ConfigurationError(f"retry: attempt must be >= 1, got {attempt}")
        delay = min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )
        if self.jitter > 0.0 and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> RetryPolicy:
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})


class CircuitBreaker:
    """Closed → open → half-open failure isolation.

    ``failure_threshold`` consecutive failures trip the breaker open;
    after ``reset_timeout_s`` it admits ``half_open_probes`` probe
    calls — one success closes it, one failure re-opens it.  The clock
    is passed in by the caller (simulated time), so the breaker itself
    is pure state.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_s: float = 30.0,
        half_open_probes: int = 1,
        name: str = "breaker",
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("breaker: failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ConfigurationError("breaker: reset_timeout_s must be >= 0")
        if half_open_probes < 1:
            raise ConfigurationError("breaker: half_open_probes must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_probes = half_open_probes
        self.state = "closed"
        self.trips = 0
        self.rejected = 0
        #: ``(time, new_state)`` transition log for tests and summaries.
        self.transitions: List[Tuple[float, str]] = []
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probes = 0

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at *now* (may move open→half-open)."""
        if self.state == "open":
            if (
                self._opened_at is not None
                and now - self._opened_at >= self.reset_timeout_s
            ):
                self._transition("half-open", now)
                self._probes = 0
            else:
                self.rejected += 1
                return False
        if self.state == "half-open":
            if self._probes >= self.half_open_probes:
                self.rejected += 1
                return False
            self._probes += 1
        return True

    def record_success(self, now: float) -> None:
        if self.state == "half-open":
            self._transition("closed", now)
        self._failures = 0

    def record_failure(self, now: float) -> None:
        if self.state == "half-open":
            self._trip(now)
            return
        self._failures += 1
        if self.state == "closed" and self._failures >= self.failure_threshold:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.trips += 1
        self._failures = 0
        self._opened_at = now
        self._transition("open", now)

    def _transition(self, state: str, now: float) -> None:
        self.state = state
        self.transitions.append((now, state))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CircuitBreaker {self.name!r} state={self.state} trips={self.trips}>"

"""The policy-wrapped checkpoint upload path.

:class:`ResilientUploader` replaces the coordinator's direct
``hdfs.backup`` call: each upload races a per-attempt
:class:`~repro.resilience.policies.Deadline`; a miss is a failure that
feeds the circuit breaker and is retried with jittered exponential
backoff; an open breaker sheds uploads entirely (the run survives with
a worse recovery point instead of an unbounded upload queue).  This is
what turns an injected ``slow_disk`` on the uplink or a
``checkpoint_timeout`` window into retries and sheds rather than
silent absorption.
"""

from __future__ import annotations

from typing import List

from .policies import CircuitBreaker, Deadline, RetryPolicy

__all__ = ["ResilientUploader"]


class ResilientUploader:
    """Retry/deadline/circuit-breaker wrapper around HDFS backups."""

    def __init__(
        self,
        sim,
        hdfs,
        policy: RetryPolicy,
        breaker: CircuitBreaker,
        deadline_s: float,
        name: str = "hdfs-upload",
    ) -> None:
        self.sim = sim
        self.hdfs = hdfs
        self.policy = policy
        self.breaker = breaker
        self.deadline_s = deadline_s
        self.name = name
        self.attempts = 0
        self.retries = 0
        self.timeouts = 0
        #: Checkpoint ids whose upload exhausted every retry.
        self.exhausted: List[int] = []
        #: Checkpoint ids shed outright by an open breaker.
        self.shed: List[int] = []
        self._rng = sim.rng.stream("resilience/upload-jitter")

    def upload(self, record) -> None:
        """Coordinator ``uploader`` hook: ship one completed checkpoint."""
        self._attempt(record.checkpoint_id, record.bytes, 1)

    def _attempt(self, checkpoint_id: int, nbytes: int, attempt: int) -> None:
        now = self.sim.now
        tracer = self.sim.tracer
        if not self.breaker.allow(now):
            self.shed.append(checkpoint_id)
            if tracer.enabled:
                tracer.instant(
                    "upload-shed", "resilience", now, tid=self.name,
                    checkpoint_id=checkpoint_id, breaker=self.breaker.state,
                )
            return
        self.attempts += 1
        deadline = Deadline.after(now, self.deadline_s)
        settled = [False]

        def on_done(_cp: int) -> None:
            if settled[0]:
                return  # already timed out; a retry owns this upload now
            settled[0] = True
            timer.cancel()
            self.breaker.record_success(self.sim.now)

        def timed_out() -> None:
            if settled[0]:
                return
            settled[0] = True
            self.timeouts += 1
            t = self.sim.now
            self.breaker.record_failure(t)
            was_tripped = self.breaker.state == "open"
            if tracer.enabled:
                tracer.instant(
                    "upload-timeout", "resilience", t, tid=self.name,
                    checkpoint_id=checkpoint_id, attempt=attempt,
                    breaker=self.breaker.state,
                )
                if was_tripped and self.breaker.transitions[-1][0] == t:
                    tracer.instant(
                        "breaker-open", "resilience", t, tid=self.name,
                        trips=self.breaker.trips,
                    )
            if attempt >= self.policy.max_attempts:
                self.exhausted.append(checkpoint_id)
                if tracer.enabled:
                    tracer.instant(
                        "retry-exhausted", "resilience", t, tid=self.name,
                        checkpoint_id=checkpoint_id,
                        attempts=self.policy.max_attempts,
                    )
                return
            self.retries += 1
            delay = self.policy.delay_s(attempt, self._rng)
            if tracer.enabled:
                tracer.instant(
                    "upload-retry", "resilience", t, tid=self.name,
                    checkpoint_id=checkpoint_id, attempt=attempt,
                    delay_s=delay,
                )
            self.sim.schedule_after(delay, self._attempt,
                                    checkpoint_id, nbytes, attempt + 1)

        timer = self.sim.schedule_after(deadline.remaining(now), timed_out)
        self.hdfs.backup(checkpoint_id, nbytes, on_done=on_done)

    def report(self) -> dict:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "exhausted": list(self.exhausted),
            "shed": list(self.shed),
            "breaker_state": self.breaker.state,
            "breaker_trips": self.breaker.trips,
        }

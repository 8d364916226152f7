"""A SILK-style I/O scheduler — the related-work baseline.

SILK (Balmau et al., USENIX ATC '19, the paper's reference [3])
mitigates latency spikes *within one* LSM store by scheduling internal
I/O: flushes get priority, lower-level compactions are preempted or
throttled while client-critical work is pending, and compaction uses
spare bandwidth.  The paper argues (§7) that such single-store methods
reduce burst *intensity* but cannot remove ShadowSync, because the
synchronization happens *across hundreds of stores* that each look idle
to their own scheduler.

This module implements the transferable essence of SILK on our engine
so the claim is testable:

* compactions are **paused while any flush is active** on the node
  (flush priority), and
* the compaction pool is **throttled to a fraction of one core's worth
  of parallelism** while the message backlog is high (spare-resource
  scheduling), here approximated with a small fixed pool.

Used via :meth:`SilkPolicy.as_mitigation_plan` plus
:func:`install_silk_pauses` on a built job; see
:func:`repro.experiments.figures.ablation_silk` (``repro paper
ablation_silk``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ConfigurationError
from .mitigation import MitigationPlan

__all__ = ["SilkPolicy", "install_silk_pauses"]


@dataclass(frozen=True)
class SilkPolicy:
    """Parameters of the SILK-like scheduler."""

    #: Compaction pool size while the system is busy (SILK keeps
    #: low-level compactions on minimal resources).
    throttled_compaction_threads: int = 2
    #: Seconds to keep compactions paused after the last flush of a
    #: cluster completes (hysteresis so interleaved flushes don't
    #: release the pause early).
    pause_hysteresis_s: float = 0.2

    def __post_init__(self) -> None:
        if self.throttled_compaction_threads < 1:
            raise ConfigurationError("need >= 1 compaction thread")
        if self.pause_hysteresis_s < 0:
            raise ConfigurationError("hysteresis must be >= 0")

    def as_mitigation_plan(self) -> MitigationPlan:
        """The static half of SILK: a small compaction pool.

        Deliberately *not* randomized and with no drain delay — SILK
        schedules I/O, it does not desynchronize triggers.
        """
        return MitigationPlan(
            compaction_threads=self.throttled_compaction_threads
        )


class _FlushPauser:
    """Pauses a node's compaction pool while flushes are active."""

    def __init__(self, sim, node, policy: SilkPolicy) -> None:
        self.sim = sim
        self.node = node
        self.policy = policy
        self._active_flushes = 0
        self._restore_event = None
        self._paused_size = None
        node.flush_pool.observers.append(self._on_flush)

    def _on_flush(self, job, what: str) -> None:
        if what == "start":
            self._active_flushes += 1
            self._pause()
        elif what == "end":
            self._active_flushes -= 1
            if self._active_flushes == 0:
                self._schedule_restore()

    def _pause(self) -> None:
        if self._restore_event is not None:
            self._restore_event.cancel()
            self._restore_event = None
        if self._paused_size is None:
            self._paused_size = self.node.compaction_pool.size
            # a size-0 pool is not allowed; "paused" = one thread that
            # only advances already-running jobs (SILK never aborts a
            # running compaction either)
            self.node.compaction_pool.resize(1)

    def _schedule_restore(self) -> None:
        if self._restore_event is not None:
            self._restore_event.cancel()
        self._restore_event = self.sim.schedule_after(
            self.policy.pause_hysteresis_s, self._restore
        )

    def _restore(self) -> None:
        self._restore_event = None
        if self._paused_size is not None:
            self.node.compaction_pool.resize(self._paused_size)
            self._paused_size = None


def install_silk_pauses(job, policy: SilkPolicy) -> List[_FlushPauser]:
    """Attach the dynamic half of SILK (flush-priority pausing) to a
    built :class:`~repro.stream.engine.StreamJob`."""
    return [_FlushPauser(job.sim, node, policy) for node in job.nodes]

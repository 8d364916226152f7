"""The watchdog supervisor: liveness for pools and workers.

Two hang pathologies exist in the simulated pipeline and the watchdog
covers both:

*stuck pool*
    a background pool left paused (a hung flush/compaction thread,
    e.g. a ``flush_stall`` fault) while work queues behind it.  After
    ``watchdog_stuck_s`` of continuous stall the pool is
    force-restarted (:meth:`~repro.sim.threadpool.SimThreadPool.restart`),
    which clears the pause — forgiving the fault's own later resume —
    and starts the queued jobs.

*hung worker*
    a stage instance blocked in a flush that makes no progress (e.g. a
    near-zero ``slow_disk`` dip) past ``watchdog_worker_stuck_s``.
    The instance is restarted through the engine's checkpoint restore:
    in-flight checkpoints abort, the store rewinds to its newest
    completed snapshot via ``restore_instance``, and
    ``abandon_flushes`` makes the state backend ignore the zombie
    flush's eventual completion.

Crashed nodes are a *declared* fault with their own recovery; the
watchdog leaves them alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import WatchdogError
from ..sim.process import spawn
from .config import ResilienceConfig

__all__ = ["Watchdog"]


class Watchdog:
    """Polls the job for stuck pools and hung workers; restarts them."""

    def __init__(self, job, config: ResilienceConfig) -> None:
        self.job = job
        self.sim = job.sim
        self.config = config
        #: Action dicts for summaries and tests.
        self.pool_restarts: List[dict] = []
        self.worker_restarts: List[dict] = []
        self._pool_stuck_since: Dict[str, float] = {}
        self._blocked_since: Dict[str, float] = {}
        self._last_restart: Dict[str, float] = {}
        self._installed = False

    def install(self) -> Watchdog:
        if self._installed:
            raise WatchdogError("watchdog already installed")
        self._installed = True
        spawn(self.sim, self._loop(), name="watchdog")
        return self

    def _loop(self):
        while True:
            yield self.config.watchdog_poll_s
            self._poll()

    # ------------------------------------------------------------------

    def _poll(self) -> None:
        now = self.sim.now
        for node in self.job.nodes:
            if node.crashed:
                # a declared crash fault owns this node's recovery
                for pool in (node.flush_pool, node.compaction_pool):
                    self._pool_stuck_since.pop(pool.name, None)
                for instance in node.instances:
                    self._blocked_since.pop(instance.name, None)
                continue
            for pool in (node.flush_pool, node.compaction_pool):
                self._check_pool(pool, now)
            for instance in node.instances:
                self._check_instance(instance, now)

    def _cooldown_ok(self, target: str, now: float) -> bool:
        last = self._last_restart.get(target)
        return last is None or now - last >= self.config.watchdog_cooldown_s

    # ------------------------------------------------------------------
    # stuck pools
    # ------------------------------------------------------------------

    def _check_pool(self, pool, now: float) -> None:
        stuck = pool.paused and pool.backlog > 0
        if not stuck:
            self._pool_stuck_since.pop(pool.name, None)
            return
        since = self._pool_stuck_since.setdefault(pool.name, now)
        if now - since < self.config.watchdog_stuck_s:
            return
        if not self._cooldown_ok(pool.name, now):
            return
        backlog = pool.backlog
        cleared = pool.restart()
        self._last_restart[pool.name] = now
        self._pool_stuck_since.pop(pool.name, None)
        action = {
            "time": now,
            "action": "pool-restart",
            "target": pool.name,
            "stuck_s": now - since,
            "cleared_pauses": cleared,
            "backlog": backlog,
        }
        self.pool_restarts.append(action)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "watchdog-pool-restart", "resilience", now, tid=pool.name,
                stuck_s=now - since, cleared_pauses=cleared, backlog=backlog,
            )

    # ------------------------------------------------------------------
    # hung workers
    # ------------------------------------------------------------------

    def _check_instance(self, instance, now: float) -> None:
        if not instance.blocked:
            self._blocked_since.pop(instance.name, None)
            return
        since = self._blocked_since.setdefault(instance.name, now)
        if now - since < self.config.watchdog_worker_stuck_s:
            return
        if not self._cooldown_ok(instance.name, now):
            return
        self._restart_instance(instance, now, since)

    def _restart_instance(self, instance, now: float, since: float) -> None:
        coordinator = self.job.coordinator
        aborted = coordinator.abort_in_flight(reason=f"watchdog:{instance.name}")
        info = coordinator.restore_instance(instance)
        instance.abandon_flushes()
        stage = self.job.stage(instance.spec.name)
        stage.update_blocked(instance.node.name)
        self._last_restart[instance.name] = now
        self._blocked_since.pop(instance.name, None)
        action = {
            "time": now,
            "action": "worker-restart",
            "target": instance.name,
            "stuck_s": now - since,
            "restored_checkpoint": info["checkpoint_id"],
            "aborted_checkpoints": [r.checkpoint_id for r in aborted],
        }
        self.worker_restarts.append(action)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "watchdog-worker-restart", "resilience", now,
                tid=instance.name, stuck_s=now - since,
                restored_checkpoint=info["checkpoint_id"],
            )

    # ------------------------------------------------------------------

    @property
    def restarts(self) -> List[dict]:
        """All restart actions in time order."""
        return sorted(
            self.pool_restarts + self.worker_restarts, key=lambda a: a["time"]
        )

    def report(self) -> Optional[dict]:
        if not self.pool_restarts and not self.worker_restarts:
            return None
        return {
            "pool_restarts": list(self.pool_restarts),
            "worker_restarts": list(self.worker_restarts),
        }

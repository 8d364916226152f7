"""The LSM state backend: RocksDB embedded in the stream engine.

This module is the control plane that turns checkpoint triggers into
flush jobs, flush completions into L0-counter bumps, and counter trips
into compaction jobs — i.e. the exact machinery that produces (and,
with a :class:`~repro.core.mitigation.MitigationPlan`, mitigates)
ShadowSync:

* a **flush** freezes the instance's memtable, *blocks the instance*
  (stop-the-world), runs on the node's flush pool (CPU + device
  phases), and unblocks on completion;
* when a flush completes and the store's L0 count reaches its effective
  trigger, **compaction** jobs are scheduled — immediately in the
  baseline, after the mitigation delay otherwise — onto the node's
  compaction pool, where they contend with message processing for CPU.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..config import CostModel
from ..core.mitigation import MitigationPlan
from ..errors import SimulationError
from ..lsm.compaction import CompactionJob
from ..lsm.flush import FlushJob
from ..lsm.store import LSMStore
from ..sim.kernel import Simulator
from ..sim.threadpool import JobPhase, SimJob
from .stage import Stage, StageInstance

__all__ = ["LSMStateBackend", "stall_level"]


def stall_level(store: LSMStore) -> float:
    """The L0-driven write-stall level of *store*: 0 none, 0.5 slowdown,
    1.0 stopped.

    Mirrors RocksDB's write controller: too many L0 files first
    throttle (slowdown trigger), then stop (stop trigger), writes —
    and with them the instance's message processing.
    """
    options = store.options
    l0 = store.l0_file_count
    if l0 >= options.l0_stop_trigger:
        return 1.0
    if l0 >= options.l0_slowdown_trigger:
        return 0.5
    return 0.0


class LSMStateBackend:
    """Orchestrates flush/compaction for every store in a job."""

    def __init__(
        self,
        sim: Simulator,
        cost: CostModel,
        mitigation: MitigationPlan,
        incremental_checkpoints: bool = True,
    ) -> None:
        self.sim = sim
        self.cost = cost
        self.mitigation = mitigation
        self.incremental_checkpoints = incremental_checkpoints
        self._stage_of: Dict[str, Stage] = {}
        #: Lifetime counters for experiment reporting.
        self.flush_jobs_started = 0
        self.compaction_jobs_started = 0
        self.write_stall_events = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register_stage(self, stage: Stage) -> None:
        self._stage_of[stage.name] = stage
        for instance in stage.instances:
            self._install_trigger_policy(instance)

    def _install_trigger_policy(self, instance: StageInstance) -> None:
        store = instance.store
        if store is None:
            return
        rng = self.sim.rng.stream(f"l0-trigger/{instance.name}")
        policy = self.mitigation.l0_trigger_policy(
            store.options.l0_compaction_trigger, rng
        )
        store.options.l0_trigger_policy = policy
        # A non-default plan policy overrides the store's own; the
        # default leaves per-store configuration (lsm options) in force.
        plan_policy = getattr(self.mitigation, "compaction_policy", "reference")
        if plan_policy != "reference" and store.policy.name != plan_policy:
            store.install_compaction_policy(plan_policy)

    # ------------------------------------------------------------------
    # flush
    # ------------------------------------------------------------------

    def flush_instance(
        self,
        instance: StageInstance,
        reason: str = "checkpoint",
        on_done: Optional[Callable[[int], None]] = None,
    ) -> bool:
        """Freeze and flush *instance*'s memtable.

        Returns ``True`` when a flush was started, ``False`` when the
        memtable was empty (the completion callback still fires with 0
        bytes so checkpoint accounting stays simple).
        """
        store = instance.store
        if store is None:
            raise SimulationError(f"{instance.name} is stateless")
        flush = store.begin_flush(reason=reason, now=self.sim.now)
        if flush is None:
            if on_done is not None:
                self.sim.call_soon(on_done, 0)
            return False

        node = instance.node
        stage = self._stage_of[instance.spec.name]
        instance.blocked = True
        instance.flush_in_flight += 1
        stage.update_blocked(node.name)
        self.flush_jobs_started += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "flush-trigger",
                "flush",
                self.sim.now,
                tid=instance.name,
                l0_files=store.l0_file_count,
                **flush.trace_args(),
            )

        nbytes = flush.input_bytes
        if not self.incremental_checkpoints and reason == "checkpoint":
            # full-snapshot backend: the whole keyed state is serialized
            # and shipped, not just the memtable delta
            nbytes = max(nbytes, store.total_bytes())
        cpu_work = self.cost.flush_cpu_work(
            nbytes, node.flush_threads, node.cores
        )
        cpu_work += (nbytes / 1e6) * node.storage.io_cpu_seconds_per_mb
        phases = [JobPhase(node.cpu, cpu_work, demand=1.0)]
        io_work = node.storage.write_work_mb(nbytes) + (
            node.storage.per_op_latency_s * node.device.capacity
        )
        if io_work > 0:
            # One sequential writer can saturate the device; concurrent
            # jobs share bandwidth through the device resource.
            phases.append(JobPhase(node.device, io_work, demand=node.device.capacity))

        epoch = instance.restart_epoch

        def complete(_job: SimJob, flush: FlushJob = flush) -> None:
            store.finish_flush(flush, now=self.sim.now)
            if instance.restart_epoch != epoch:
                # the instance abandoned its flushes (it moved off a
                # dead host) while this one was in flight: its
                # bookkeeping was already reset, and the flush's output
                # was orphaned by the store restore — drop the completion
                return
            instance.flush_in_flight -= 1
            if instance.flush_in_flight == 0:
                instance.blocked = False
            self._update_stall(instance)
            stage.update_blocked(node.name)
            self._after_flush(instance)
            if on_done is not None:
                on_done(nbytes)

        job = SimJob(
            name=f"flush-{instance.name}@{self.sim.now:.1f}",
            kind="flush",
            phases=phases,
            on_complete=complete,
            metadata={
                "stage": instance.spec.name,
                "instance": instance.index,
                "input_bytes": nbytes,
                "reason": reason,
            },
        )
        node.flush_pool.submit(job)
        return True

    # ------------------------------------------------------------------
    # write stalls
    # ------------------------------------------------------------------

    def _update_stall(self, instance: StageInstance) -> None:
        """Re-evaluate the instance's write-stall level (see
        :func:`stall_level`), counting each escalation."""
        level = stall_level(instance.store)
        if level != instance.stall_level:
            if level > instance.stall_level:
                self.write_stall_events += 1
            instance.stall_level = level

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def _after_flush(self, instance: StageInstance) -> None:
        delay = self.mitigation.compaction_delay_s
        tracer = self.sim.tracer
        if tracer.enabled and instance.store is not None:
            tracer.instant(
                "compaction-check",
                "compaction",
                self.sim.now,
                tid=instance.name,
                l0_files=instance.store.l0_file_count,
                trigger=instance.store.options.effective_l0_trigger(),
                delay_s=delay,
            )
        if delay > 0:
            self.sim.schedule_after(delay, self.schedule_due_compactions, instance)
        else:
            self.schedule_due_compactions(instance)

    def schedule_due_compactions(self, instance: StageInstance) -> int:
        """Submit every compaction the store currently owes; returns how
        many were scheduled."""
        store = instance.store
        if store is None or store.closed:
            return 0
        hold = store.policy.submission_hold(
            self.sim.now, node=instance.node, store=store
        )
        if hold > 0:
            # scheduling policy (flush-first, token bucket) defers the
            # whole drain; re-check once the hold elapses
            self.sim.schedule_after(hold, self.schedule_due_compactions, instance)
            return 0
        scheduled = 0
        while True:
            compaction = store.pick_compaction(now=self.sim.now)
            if compaction is None:
                break
            self._submit_compaction(instance, compaction)
            store.policy.on_submitted(compaction, now=self.sim.now)
            scheduled += 1
            policy = store.options.l0_trigger_policy
            if policy is not None and hasattr(policy, "advance"):
                policy.advance()
        return scheduled

    def _submit_compaction(
        self, instance: StageInstance, compaction: CompactionJob
    ) -> None:
        node = instance.node
        store = instance.store
        self.compaction_jobs_started += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "compaction-trigger",
                "compaction",
                self.sim.now,
                tid=instance.name,
                l0_files=store.l0_file_count,
                **compaction.trace_args(),
            )
        input_bytes = compaction.input_bytes
        cpu_work = self.cost.compaction_cpu_work(input_bytes)
        cpu_work += (
            self.cost.compaction_io_mb(input_bytes)
            * node.storage.io_cpu_seconds_per_mb
        )
        phases = [JobPhase(node.cpu, cpu_work, demand=1.0)]
        # Reads charged at the read/write bandwidth ratio; the device
        # resource's capacity is the write bandwidth.
        read_mb = node.storage.read_work_mb(input_bytes) * (
            node.storage.write_bandwidth_mb_s / node.storage.read_bandwidth_mb_s
        )
        write_mb = self.cost.compaction_io_mb(input_bytes) - input_bytes / 1e6
        io_work = read_mb + max(write_mb, 0.0) + (
            node.storage.per_op_latency_s * node.device.capacity
        )
        if io_work > 0:
            phases.append(
                JobPhase(node.device, io_work, demand=node.device.capacity)
            )

        def complete(_job: SimJob, compaction: CompactionJob = compaction) -> None:
            store.finish_compaction(compaction, now=self.sim.now)
            self._update_stall(instance)
            self._stage_of[instance.spec.name].update_blocked(node.name)

        job = SimJob(
            name=f"compaction-{instance.name}@{self.sim.now:.1f}",
            kind="compaction",
            phases=phases,
            on_complete=complete,
            metadata={
                "stage": instance.spec.name,
                "instance": instance.index,
                "input_bytes": input_bytes,
                "files": compaction.input_files,
                "policy": compaction.policy,
            },
        )
        node.compaction_pool.submit(job)

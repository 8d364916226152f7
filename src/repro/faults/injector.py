"""The fault injector: schedules a :class:`FaultPlan` onto a built job.

Every fault is two kernel events — a high-priority *begin* at ``at_s``
and a matching *end* ``duration_s`` later — so injection is exactly as
deterministic as the rest of the simulation: the same seed and plan
produce the same event sequence, byte for byte.

Fault semantics
---------------

``worker_crash``
    The node goes down: hosted instances freeze, background pools stop
    starting jobs, queued inputs on the node are dropped, and every
    in-flight checkpoint is aborted (its barrier is lost).  At the end
    of the downtime each store is rewound **in place** to its newest
    completed checkpoint snapshot and the source backlog since that
    snapshot is replayed into the node's stage-0 flow — Flink's
    restart-from-checkpoint in fluid form.
``flush_stall`` / ``compaction_stall``
    The node's background pool stops starting jobs (a hung thread);
    running jobs finish, queued work piles up.
``slow_disk``
    The node's device capacity dips to ``factor`` of its profile
    bandwidth (see :func:`repro.faults.capacity.capacity_dip`).
``checkpoint_timeout``
    The coordinator's checkpoint timeout is set to ``factor`` seconds
    for the window; checkpoints that cannot finish in time abort.
``kafka_backpressure``
    The source rate is multiplied by ``factor`` (a throttled broker).
``node_crash``
    The cluster-layer crash: with a :class:`~repro.cluster.ClusterManager`
    installed, the manager fences the node, the failure detector accrues
    suspicion, and stateful partitions fail over to healthy nodes via
    checkpoint transfer; without one, degrades to ``worker_crash``.
``node_flap``
    ``factor`` down/up cycles packed into the window — the pathological
    membership churn case for the failure detector.
``network_partition``
    The node keeps running but its heartbeats (and any transfers
    touching it) are cut off; a recorded no-op without a cluster layer.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..sim.events import HIGH_PRIORITY
from ..sim.process import spawn
from ..stream.engine import Subsystem
from .capacity import capacity_dip
from .plan import ALL_NODES, GLOBAL_KINDS, FaultPlan, FaultSpec

__all__ = ["FaultInjector"]


class FaultInjector(Subsystem):
    """Schedules and executes one :class:`FaultPlan` against one job."""

    channel = "faults"

    def __init__(self, job, plan: FaultPlan) -> None:
        self.job = job
        self.sim = job.sim
        self.plan = plan
        #: One dict per (fault, target-node): kind/node/start/end/....
        self.events: List[dict] = []
        #: ``(label, start, end)`` windows for spike attribution.
        self.windows: List[Tuple[str, float, float]] = []
        # stacks for overlapping global faults
        self._backpressure: List[float] = []
        self._base_timeout = job.coordinator.timeout_s
        self._timeouts: List[float] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def install(self) -> FaultInjector:
        self.job.attach("faults", self)
        for spec in self.plan.faults:
            for node in self._targets(spec):
                self.sim.schedule(
                    spec.at_s, self._begin, spec, node, priority=HIGH_PRIORITY
                )
        return self

    def report(self) -> dict:
        """The run summary's ``faults`` section (the checker's findings
        ride along: it exists to audit this plan)."""
        checker = self.job.subsystems.get("invariants")
        return {
            "plan": self.plan.to_dict(),
            "events": [dict(event) for event in self.events],
            "invariant_violations": [] if checker is None else checker.to_dicts(),
        }

    def _targets(self, spec: FaultSpec) -> list:
        if spec.kind in GLOBAL_KINDS:
            return [None]
        nodes = self.job.nodes
        if spec.node == ALL_NODES:
            return list(nodes)
        return [nodes[spec.node % len(nodes)]]

    def _begin(self, spec: FaultSpec, node) -> None:
        label = node.name if node is not None else "cluster"
        event = {
            "kind": spec.kind,
            "node": label,
            "at_s": spec.at_s,
            "duration_s": spec.duration_s,
            "factor": spec.factor,
            "start": self.sim.now,
            "end": None,
        }
        self.events.append(event)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "fault-inject", "fault", self.sim.now, tid=label,
                kind=spec.kind, duration_s=spec.duration_s, factor=spec.factor,
            )
        cleanup = getattr(self, "_begin_" + spec.kind)(spec, node, event)
        self.sim.schedule(
            self.sim.now + spec.duration_s,
            self._end, spec, node, event, cleanup,
            priority=HIGH_PRIORITY,
        )

    def _end(self, spec: FaultSpec, node, event: dict,
             cleanup: Optional[Callable[[], None]]) -> None:
        if cleanup is not None:
            cleanup()
        event["end"] = self.sim.now
        self.windows.append(
            (f"{spec.kind}@{event['node']}", event["start"], self.sim.now)
        )
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "fault-clear", "fault", self.sim.now,
                tid=event["node"], kind=spec.kind,
            )

    # ------------------------------------------------------------------
    # per-kind begin handlers; each returns the cleanup for _end
    # ------------------------------------------------------------------

    def _begin_flush_stall(self, spec: FaultSpec, node, event: dict):
        node.flush_pool.pause()
        return node.flush_pool.resume

    def _begin_compaction_stall(self, spec: FaultSpec, node, event: dict):
        node.compaction_pool.pause()
        return node.compaction_pool.resume

    def _begin_slow_disk(self, spec: FaultSpec, node, event: dict):
        degraded = node.storage.degraded(spec.factor)
        scale = degraded.device_capacity / node.storage.device_capacity
        spawn(
            self.sim,
            capacity_dip(self.sim, node.device, scale, spec.duration_s),
            name=f"slow-disk-{node.name}",
        )
        return None  # the dip restores itself

    def _begin_kafka_backpressure(self, spec: FaultSpec, node, event: dict):
        self._backpressure.append(spec.factor)
        self._apply_backpressure()

        def clear() -> None:
            self._backpressure.remove(spec.factor)
            self._apply_backpressure()

        return clear

    def _apply_backpressure(self) -> None:
        rate = self.job.source.steady_rate()
        for factor in self._backpressure:
            rate *= factor
        self.job.set_source_rate(rate)

    def _begin_checkpoint_timeout(self, spec: FaultSpec, node, event: dict):
        self._timeouts.append(spec.factor)
        self.job.coordinator.timeout_s = spec.factor

        def clear() -> None:
            self._timeouts.remove(spec.factor)
            self.job.coordinator.timeout_s = (
                self._timeouts[-1] if self._timeouts else self._base_timeout
            )

        return clear

    def _begin_worker_crash(self, spec: FaultSpec, node, event: dict):
        coordinator = self.job.coordinator
        # the crash tears down this node's barrier participants, so any
        # checkpoint still collecting acks can never complete
        aborted = coordinator.abort_in_flight(reason=f"crash:{node.name}")
        event["aborted_checkpoints"] = [r.checkpoint_id for r in aborted]
        node.begin_crash()
        dropped = 0.0
        for stage in self.job.stages:
            flow = stage.flows.get(node.name)
            if flow is not None:
                dropped += flow.drop_backlog()
            stage.update_blocked(node.name)
        event["dropped_messages"] = dropped

        def recover() -> None:
            self._recover(node, event)

        return recover

    # ------------------------------------------------------------------
    # cluster-layer faults (repro.cluster)
    # ------------------------------------------------------------------

    def _begin_node_crash(self, spec: FaultSpec, node, event: dict):
        manager = self.job.subsystems.get("cluster")
        if manager is None:
            # no cluster layer: classic crash-and-restore semantics
            return self._begin_worker_crash(spec, node, event)
        manager.begin_node_crash(node, event)

        def recover() -> None:
            manager.end_node_crash(node, event)

        return recover

    def _begin_node_flap(self, spec: FaultSpec, node, event: dict):
        manager = self.job.subsystems.get("cluster")
        cycles = max(1, int(round(spec.factor)))
        event["cycles"] = cycles
        event["flaps"] = []
        spawn(
            self.sim,
            self._flap_loop(spec, node, event, manager, cycles),
            name=f"flap-{node.name}",
        )
        return None  # each cycle restores itself inside the window

    def _flap_loop(self, spec: FaultSpec, node, event: dict,
                   manager, cycles: int):
        phase = spec.duration_s / (2 * cycles)
        for cycle in range(cycles):
            sub = {
                "kind": "node_crash", "node": node.name, "cycle": cycle,
                "start": self.sim.now, "end": None,
            }
            event["flaps"].append(sub)
            if manager is not None:
                manager.begin_node_crash(node, sub)
                yield phase
                manager.end_node_crash(node, sub)
            else:
                recover = self._begin_worker_crash(spec, node, sub)
                yield phase
                recover()
            sub["end"] = self.sim.now
            yield phase

    def _begin_network_partition(self, spec: FaultSpec, node, event: dict):
        manager = self.job.subsystems.get("cluster")
        if manager is None:
            # heartbeats only exist in the cluster layer; nothing to cut
            event["ignored"] = "no cluster layer installed"
            return None
        manager.begin_partition(node, event)

        def heal() -> None:
            manager.end_partition(node, event)

        return heal

    def _recover(self, node, event: dict) -> None:
        coordinator = self.job.coordinator
        restores = []
        snapshot_times = []
        for instance in node.instances:
            if instance.store is None:
                continue
            info = coordinator.restore_instance(instance)
            restores.append(info)
            snapshot_times.append(info["snapshot_time"])
            # the restore rewrote the level structure; recompute the
            # L0-driven stall level the same way the state backend does
            options = instance.store.options
            l0 = instance.store.l0_file_count
            if l0 >= options.l0_stop_trigger:
                instance.stall_level = 1.0
            elif l0 >= options.l0_slowdown_trigger:
                instance.stall_level = 0.5
            else:
                instance.stall_level = 0.0
        event["restores"] = restores
        node.end_crash()
        # replay: everything the source delivered to this node between the
        # restored snapshot and the crash must be processed again (stage 0
        # re-reads it from the durable source).  Deliveries *during* the
        # downtime already sit in the flow's queue — Kafka kept them — so
        # the replay window ends at the crash, not at recovery.
        rewind_to = min(snapshot_times) if snapshot_times else event["start"]
        stage0 = self.job.stages[0]
        flow = stage0.flows.get(node.name)
        replayed = 0.0
        if flow is not None:
            replayed = flow.arrival_rate * max(0.0, event["start"] - rewind_to)
            flow.add_backlog(replayed)
        event["replayed_messages"] = replayed
        event["rewound_to_s"] = rewind_to
        for stage in self.job.stages:
            stage.update_blocked(node.name)

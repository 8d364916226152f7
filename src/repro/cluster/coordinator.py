"""The cluster coordinator: membership, placement and state migration.

:class:`ClusterManager` owns the partition→node assignment of a built
:class:`~repro.stream.engine.StreamJob` and drives the node lifecycle
on top of the sim kernel:

* **Heartbeats + failure detection.**  One kernel event per
  ``heartbeat_interval_s`` samples every live node into the
  phi-accrual detector; a node silenced by a crash or network
  partition accrues suspicion and is *fenced* (checkpoints aborted,
  data plane frozen, queued inputs shed) once phi crosses the
  threshold — graceful degradation: only the fenced node's keys stop,
  everything else keeps flowing.
* **Scheduled membership.**  ``ClusterSpec.events`` joins fresh worker
  nodes (engine topology grows mid-run) and drains/retires leaving
  ones, each followed by a keyed rebalance toward an even spread.
* **State migration.**  Moving a partition means checkpoint-snapshot →
  transfer (bandwidth-paced, with RetryPolicy backoff, a Deadline and
  a per-destination CircuitBreaker from :mod:`repro.resilience`) →
  restore on the destination → atomic ownership flip (single event
  time: host maps, flows and the ownership log move together).
  Planned migrations (rebalance/drain) ship a live snapshot; failover
  ships the newest *completed* checkpoint from the durable store and
  replays the delta since its trigger time, exactly like crash
  recovery.

Every decision runs on the sim clock with a named RNG stream, so an
elastic run is as deterministic and byte-stable as a static one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..resilience.policies import CircuitBreaker, Deadline
from ..sim.events import HIGH_PRIORITY
from ..sim.process import spawn
from ..stream.engine import Subsystem
from .detector import PhiAccrualDetector
from .spec import ClusterSpec, MembershipEvent

__all__ = ["ClusterManager", "install_cluster", "state_digest"]

#: Poll step while waiting for an instance's in-flight flush to drain
#: before an ownership flip.
_FLUSH_DRAIN_POLL_S = 0.05


def state_digest(snapshot: Optional[dict]) -> str:
    """Shape digest of a store snapshot: per-level table count and
    logical bytes.  The WAL frontier is deliberately excluded — the
    destination replays the WAL tail, so its frontier legitimately
    advances past the snapshot's."""
    if snapshot is None:
        return "cold"
    parts = []
    for level in snapshot.get("levels", []):
        parts.append(
            f"{len(level)}/{int(sum(t.logical_bytes for t in level))}"
        )
    return "|".join(parts) if parts else "empty"


def install_cluster(job, spec: ClusterSpec) -> "ClusterManager":
    """Install the elastic cluster layer on a built (unstarted) job
    (filed under ``job.subsystems["cluster"]``)."""
    if spec.initial_nodes and spec.initial_nodes != len(job.nodes):
        raise ConfigurationError(
            f"ClusterSpec.initial_nodes={spec.initial_nodes} but the job "
            f"was built with {len(job.nodes)} nodes"
        )
    manager = ClusterManager(job, spec)
    manager.start()
    return manager


class ClusterManager(Subsystem):
    """Deterministic membership + placement layer for one job."""

    channel = "cluster"

    def __init__(self, job, spec: ClusterSpec) -> None:
        self.job = job
        self.sim = job.sim
        self.spec = spec
        self.detector = PhiAccrualDetector(
            spec.heartbeat_interval_s,
            spec.phi_threshold,
            spec.min_std_s,
            spec.history_window,
        )
        self._rng = self.sim.rng.stream("cluster")
        #: Names of nodes currently part of the cluster.
        self.live: List[str] = [node.name for node in job.nodes]
        self.retired: List[str] = []
        #: Nodes currently under a crash fault (process down).
        self.down: set = set()
        #: Nodes currently cut off by a network partition.
        self.partitioned: set = set()
        #: Nodes being drained for a scheduled leave.
        self.retiring: set = set()
        #: Fenced nodes: name -> {"start": t, ...}; data plane frozen.
        self.fenced: Dict[str, dict] = {}
        #: Time each fenced node went silent (failover replay anchor).
        self._fence_time: Dict[str, float] = {}
        #: partition (instance name) -> owning node name.
        self.owner: Dict[str, str] = {}
        #: Append-only flips: each entry's ``from`` equals the previous
        #: entry's ``to`` for that partition (audited by the
        #: single-owner invariant).
        self.ownership_log: List[dict] = []
        #: One dict per migration attempt chain (see _new_migration).
        self.migrations: List[dict] = []
        #: ``(label, start, end)`` rebalance/failover windows for
        #: millibottleneck spike attribution.
        self.windows: List[Tuple[str, float, float]] = []
        self.membership_log: List[dict] = []
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._active_migrations = 0
        self._migration_queue: Deque[dict] = deque()
        self._plans: Dict[int, dict] = {}
        self._next_plan_id = 0
        self._next_migration_id = 0
        self._node_seq = len(job.nodes)
        for stage in job.stages:
            for instance in stage.instances:
                self.owner[instance.name] = instance.node.name

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.job.attach("cluster", self)
        now = self.sim.now
        for name in sorted(self.live):
            self.detector.register(name, now)
        for event in self.spec.events:
            self.sim.schedule(
                event.at_s, self._membership_event, event,
                priority=HIGH_PRIORITY,
            )
        spawn(
            self.sim,
            self._membership_loop(),
            name="cluster-membership",
            priority=HIGH_PRIORITY,
        )

    def _membership_loop(self):
        interval = self.spec.heartbeat_interval_s
        while True:
            yield interval
            now = self.sim.now
            for name in sorted(self.live):
                if self._heartbeating(name):
                    if self.detector.heartbeat(name, now):
                        self._on_revive(name)
            for name in self.detector.tracked():
                phi = self.detector.check(name, now)
                if phi is not None:
                    self._on_suspect(name, phi)

    def _heartbeating(self, name: str) -> bool:
        """A node heartbeats while its process is up and reachable.
        (A *fenced* node still heartbeats — fencing is a control-plane
        quarantine; its revival is what lifts the fence.)"""
        return name not in self.down and name not in self.partitioned

    # ------------------------------------------------------------------
    # node lookup helpers
    # ------------------------------------------------------------------

    def _node(self, name: str):
        return self.job._node(name)

    def _healthy(self, name: str) -> bool:
        return (
            name in self.live
            and name not in self.down
            and name not in self.partitioned
            and name not in self.fenced
            and not self._node(name).crashed
        )

    def _placement_candidates(self) -> List[str]:
        return [
            name for name in sorted(self.live)
            if self._healthy(name) and name not in self.retiring
        ]

    def _hosted_count(self, name: str) -> int:
        return sum(
            len(stage.instances_by_node.get(name, ()))
            for stage in self.job.stages
        )

    def _inbound_count(self, name: str) -> int:
        return sum(
            1 for m in self.migrations
            if m["dest"] == name and m["status"] in ("pending", "transferring")
        )

    def _least_loaded(self, candidates: List[str],
                      exclude: str = "") -> Optional[str]:
        best = None
        for name in candidates:
            if name == exclude:
                continue
            # physical hosting alone is stale while a plan is being laid
            # out (flips happen later), so count inbound transfers too —
            # otherwise a whole failover lands on a single survivor
            load = self._hosted_count(name) + self._inbound_count(name)
            if best is None or load < best[0]:
                best = (load, name)
        return None if best is None else best[1]

    def _breaker(self, dest: str) -> CircuitBreaker:
        breaker = self._breakers.get(dest)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.spec.breaker_failures,
                reset_timeout_s=self.spec.breaker_reset_s,
                name=f"transfer-to-{dest}",
            )
            self._breakers[dest] = breaker
        return breaker

    def _instant(self, name: str, tid: str, **fields) -> None:
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(name, "cluster", self.sim.now, tid=tid, **fields)

    # ------------------------------------------------------------------
    # scheduled membership
    # ------------------------------------------------------------------

    def _membership_event(self, event: MembershipEvent) -> None:
        if event.action == "join":
            self.node_join(event.count)
        else:
            self.node_leave(event.count)

    def node_join(self, count: int = 1) -> List[str]:
        """Add *count* fresh worker nodes and rebalance onto them."""
        added = []
        for _ in range(count):
            name = f"node{self._node_seq}"
            self._node_seq += 1
            cores = self.spec.node.cores or self.job.cluster.cores_per_node
            self.job.add_worker_node(name, cores)
            self.live.append(name)
            self.detector.register(name, self.sim.now)
            added.append(name)
            self.membership_log.append(
                {"event": "join", "node": name, "time": self.sim.now}
            )
            self._instant("node-join", name, cores=cores)
        self.rebalance(f"scale-out:+{count}")
        return added

    def node_leave(self, count: int = 1) -> List[str]:
        """Drain and retire the *count* highest-named healthy nodes."""
        victims = [
            name for name in sorted(self.live)
            if self._healthy(name) and name not in self.retiring
        ]
        keep_at_least = 1
        count = min(count, max(0, len(victims) - keep_at_least))
        victims = victims[len(victims) - count:]
        if not victims:
            return []
        plan = self._open_plan(f"scale-in:-{count}")
        for name in victims:
            self.retiring.add(name)
            self.membership_log.append(
                {"event": "leave-begin", "node": name, "time": self.sim.now}
            )
            self._instant("node-drain", name)
        for name in victims:
            node = self._node(name)
            for instance in self._hosted_instances(node):
                dest = self._least_loaded(
                    self._placement_candidates(), exclude=name
                )
                if dest is None:
                    # nowhere to drain to; the node stays until the
                    # cluster has capacity again
                    continue
                self._enqueue_migration(instance, dest, "drain", plan)
        self._close_plan_if_empty(plan)
        for name in victims:
            self._retire_if_empty(name)
        return victims

    def _hosted_instances(self, node) -> List:
        hosted = []
        for stage in self.job.stages:
            hosted.extend(stage.instances_by_node.get(node.name, ()))
        return hosted

    def _retire_if_empty(self, name: str) -> None:
        if name not in self.retiring:
            return
        if self._hosted_count(name):
            return
        self.retiring.discard(name)
        if name in self.live:
            self.live.remove(name)
        self.retired.append(name)
        self.detector.deregister(name)
        self.membership_log.append(
            {"event": "leave", "node": name, "time": self.sim.now}
        )
        self._instant("node-leave", name)

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------

    def rebalance(self, reason: str) -> int:
        """Move partitions toward an even spread over healthy nodes.

        Per stage: target = floor/ceil split over the placement
        candidates (sorted by name); surplus nodes give up their
        highest-index instances first.  Returns the number of
        migrations scheduled.
        """
        targets = self._placement_candidates()
        if not targets:
            return 0
        plan = self._open_plan(f"rebalance:{reason}")
        moves = 0
        for stage in self.job.stages:
            movable = sum(
                len(stage.instances_by_node.get(name, ())) for name in targets
            )
            if not movable:
                continue
            base, extra = divmod(movable, len(targets))
            want = {
                name: base + (1 if i < extra else 0)
                for i, name in enumerate(targets)
            }
            surplus: List = []
            for name in targets:
                hosted = list(stage.instances_by_node.get(name, ()))
                excess = len(hosted) - want[name]
                if excess > 0:
                    picked = sorted(hosted, key=lambda inst: inst.index)
                    surplus.extend(reversed(picked[-excess:]))
            for name in targets:
                deficit = want[name] - len(stage.instances_by_node.get(name, ()))
                while deficit > 0 and surplus:
                    instance = surplus.pop(0)
                    self._enqueue_migration(instance, name, "rebalance", plan)
                    moves += 1
                    deficit -= 1
        self._close_plan_if_empty(plan)
        if moves:
            self._instant("rebalance-plan", "coordinator",
                          reason=reason, moves=moves)
        return moves

    def _open_plan(self, label: str) -> dict:
        plan = {
            "id": self._next_plan_id,
            "label": label,
            "start": self.sim.now,
            "end": None,
            "pending": set(),
            "closed": False,
        }
        self._next_plan_id += 1
        self._plans[plan["id"]] = plan
        return plan

    def _close_plan_if_empty(self, plan: dict) -> None:
        if plan["closed"] or plan["pending"]:
            return
        plan["closed"] = True
        plan["end"] = self.sim.now
        if plan["end"] > plan["start"]:
            self.windows.append((plan["label"], plan["start"], plan["end"]))
        self._instant("rebalance-complete", "coordinator",
                      label=plan["label"])

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def _on_suspect(self, name: str, phi: float) -> None:
        self._instant("node-suspect", name, phi=round(phi, 3))
        if name not in self.live:
            return
        candidates = [c for c in self._placement_candidates() if c != name]
        if not candidates:
            # no healthy destination: degrade gracefully — the node's
            # keys queue until it comes back, nothing is fenced
            self.membership_log.append(
                {"event": "suspect-no-destination", "node": name,
                 "time": self.sim.now}
            )
            return
        # Fencing IS the point: a suspected node must stop serving
        # before ownership flips, so the block is the protocol.
        # repro: allow[DS201] declared fence edge (cluster.fence)
        self._fence(name)
        node = self._node(name)
        stateful = [
            inst for inst in self._hosted_instances(node)
            if inst.store is not None
        ]
        if not stateful:
            return
        plan = self._open_plan(f"failover:{name}")
        for instance in sorted(stateful, key=lambda i: i.name):
            dest = self._least_loaded(candidates)
            if dest is None:
                break
            self._enqueue_migration(instance, dest, "failover", plan)
        self._close_plan_if_empty(plan)

    def _on_revive(self, name: str) -> None:
        self._instant("node-revive", name)
        self._unfence(name)
        if self.spec.rebalance_on_rejoin and name not in self.retiring:
            self.rebalance(f"rejoin:{name}")

    def _fence(self, name: str) -> None:
        """Quarantine a suspected node: abort checkpoints its barrier
        participants can no longer ack, freeze its data plane, shed its
        queued inputs (Kafka re-reads them on replay)."""
        if name in self.fenced:
            return
        node = self._node(name)
        record = {"start": self.sim.now, "dropped_messages": 0.0}
        self._fence_time[name] = self.sim.now
        self.job.coordinator.abort_in_flight(reason=f"fence:{name}")
        node.begin_crash()
        dropped = 0.0
        for stage in self.job.stages:
            flow = stage.flows.get(name)
            if flow is not None:
                dropped += flow.drop_backlog()
            stage.update_blocked(name)
        record["dropped_messages"] = dropped
        self.fenced[name] = record
        self._abort_transfers(name, "source-fenced")
        self._instant("node-fence", name, dropped=dropped)

    def _unfence(self, name: str) -> None:
        record = self.fenced.pop(name, None)
        if record is None:
            return
        node = self._node(name)
        self._restore_in_place(node, record["start"])
        node.end_crash()
        for stage in self.job.stages:
            stage.update_blocked(name)
        self._fence_time.pop(name, None)
        self._instant("node-unfence", name)

    def _restore_in_place(self, node, since: float) -> None:
        """Rewind every instance still hosted on *node* to its newest
        completed checkpoint and replay the gap — the same recovery the
        fault injector performs for a classic worker crash."""
        coordinator = self.job.coordinator
        snapshot_times = []
        for instance in self._hosted_instances(node):
            if instance.store is None:
                continue
            info = coordinator.restore_instance(instance)
            snapshot_times.append(info["snapshot_time"])
            self._recompute_stall(instance)
        rewind_to = min(snapshot_times) if snapshot_times else since
        stage0 = self.job.stages[0]
        flow = stage0.flows.get(node.name)
        if flow is not None:
            replayed = flow.arrival_rate * max(0.0, since - rewind_to)
            if replayed > 0:
                flow.add_backlog(replayed)

    @staticmethod
    def _recompute_stall(instance) -> None:
        options = instance.store.options
        l0 = instance.store.l0_file_count
        if l0 >= options.l0_stop_trigger:
            instance.stall_level = 1.0
        elif l0 >= options.l0_slowdown_trigger:
            instance.stall_level = 0.5
        else:
            instance.stall_level = 0.0

    # ------------------------------------------------------------------
    # fault hooks (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------

    def begin_node_crash(self, node, event: dict) -> None:
        """The node process dies: abort its barriers, freeze its share
        of every stage, shed its queues, kill its outgoing transfers."""
        name = node.name
        self.down.add(name)
        aborted = self.job.coordinator.abort_in_flight(reason=f"crash:{name}")
        event["aborted_checkpoints"] = [r.checkpoint_id for r in aborted]
        node.begin_crash()
        dropped = 0.0
        for stage in self.job.stages:
            flow = stage.flows.get(name)
            if flow is not None:
                dropped += flow.drop_backlog()
            stage.update_blocked(name)
        event["dropped_messages"] = dropped
        self._abort_transfers(name, "source-crashed")

    def end_node_crash(self, node, event: dict) -> None:
        """The node process restarts.  If the detector fenced it the
        fence owns recovery (lifted on revival); otherwise restore in
        place immediately, like the classic worker-crash path."""
        name = node.name
        self.down.discard(name)
        if name not in self.fenced:
            self._restore_in_place(node, event.get("start", self.sim.now))
        node.end_crash()
        for stage in self.job.stages:
            stage.update_blocked(name)

    def begin_partition(self, node, event: dict) -> None:
        self.partitioned.add(node.name)
        self._instant("net-partition", node.name)

    def end_partition(self, node, event: dict) -> None:
        self.partitioned.discard(node.name)
        self._instant("net-heal", node.name)

    def _abort_transfers(self, name: str, reason: str) -> None:
        """Kill planned transfers whose *source* just died — their live
        snapshot is gone.  (Failover transfers read from the durable
        checkpoint store, so a dead source cannot abort them.)"""
        for record in self.migrations:
            if record["status"] != "transferring":
                continue
            if record["kind"] == "failover":
                continue
            if record["source"] == name:
                record["status"] = "aborted"
                record["reason"] = reason
                record["end"] = self.sim.now

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------

    def _enqueue_migration(self, instance, dest: str, kind: str,
                           plan: dict) -> dict:
        record = {
            "id": self._next_migration_id,
            "kind": kind,
            "partition": instance.name,
            "source": instance.node.name,
            "dest": dest,
            "plan_id": plan["id"],
            "status": "pending",
            "start": self.sim.now,
            "end": None,
            "attempts": 0,
            "bytes": 0,
            "snapshot_time": None,
            "replayed_messages": 0.0,
            "digest_source": None,
            "digest_restored": None,
            "reason": None,
        }
        self._next_migration_id += 1
        self.migrations.append(record)
        plan["pending"].add(instance.name)
        task = {"record": record, "instance": instance}
        if self._active_migrations >= self.spec.max_parallel_migrations:
            self._migration_queue.append(task)
        else:
            self._start_migration(task)
        return record

    def _start_migration(self, task: dict) -> None:
        self._active_migrations += 1
        spawn(
            self.sim,
            self._migration_proc(task),
            name=f"migrate-{task['record']['id']}",
        )

    def _migration_proc(self, task: dict):
        record = task["record"]
        instance = task["instance"]
        spec = self.spec
        if record["status"] == "aborted":
            self._migration_done(record)
            return
        record["status"] = "transferring"
        self._instant(
            "partition-migrate", record["partition"],
            kind=record["kind"], source=record["source"], dest=record["dest"],
        )
        # stateless partitions flip instantly — nothing to ship
        if instance.store is None:
            self._flip(record, instance, None, self.sim.now)
            self._migration_done(record)
            return
        if record["kind"] == "failover":
            entry = self.job.coordinator.latest_snapshot(record["partition"])
            if entry is None:
                snapshot, snapshot_time = None, 0.0
            else:
                snapshot, snapshot_time = entry[2], entry[1]
            nbytes = _snapshot_bytes(snapshot)
        else:
            # live snapshot: wait out any in-flight flush so no ack
            # closure straddles the move
            while instance.flush_in_flight > 0:
                yield _FLUSH_DRAIN_POLL_S
                if record["status"] != "transferring":
                    self._migration_done(record)
                    return
            snapshot = instance.store.snapshot_state()
            snapshot_time = self.sim.now
            nbytes = instance.store.total_bytes()
        record["bytes"] = nbytes
        record["snapshot_time"] = snapshot_time
        deadline = Deadline.after(self.sim.now, spec.transfer_deadline_s)
        record["deadline"] = deadline.at
        failure = None
        while True:
            record["attempts"] += 1
            breaker = self._breaker(record["dest"])
            if not breaker.allow(self.sim.now):
                failure = "breaker-open"
            else:
                transfer_s = nbytes / (spec.migration_bandwidth_mb_s * 1e6)
                yield max(transfer_s, 1e-3)
                if record["status"] != "transferring":
                    self._migration_done(record)
                    return
                if self._transfer_ok(record):
                    breaker.record_success(self.sim.now)
                    break
                breaker.record_failure(self.sim.now)
                failure = "endpoint-unhealthy"
            if (record["attempts"] >= spec.retry.max_attempts
                    or deadline.expired(self.sim.now)):
                if deadline.expired(self.sim.now):
                    failure = "deadline-expired"
                self._migration_failed(record, instance, failure)
                self._migration_done(record)
                return
            yield spec.retry.delay_s(record["attempts"], self._rng)
            if record["status"] != "transferring":
                self._migration_done(record)
                return
        if record["kind"] != "failover":
            # a checkpoint may have started a flush during the transfer
            while instance.flush_in_flight > 0:
                yield _FLUSH_DRAIN_POLL_S
                if record["status"] != "transferring":
                    self._migration_done(record)
                    return
        self._flip(record, instance, snapshot, snapshot_time)
        self._migration_done(record)

    def _transfer_ok(self, record: dict) -> bool:
        dest_ok = (
            record["dest"] in self.live
            and record["dest"] not in self.down
            and record["dest"] not in self.partitioned
            and record["dest"] not in self.fenced
        )
        if record["kind"] == "failover":
            return dest_ok
        source = record["source"]
        source_ok = (
            source not in self.down and source not in self.partitioned
        )
        return dest_ok and source_ok

    def _migration_failed(self, record: dict, instance,
                          reason: Optional[str]) -> None:
        record["status"] = "failed"
        record["reason"] = reason
        record["end"] = self.sim.now
        self._instant(
            "migrate-failed", record["partition"],
            kind=record["kind"], dest=record["dest"], reason=reason or "",
        )
        if record["kind"] != "failover":
            return
        # failover must land somewhere: re-dispatch once toward the
        # next-least-loaded healthy destination, if one exists
        if record.get("redispatched"):
            return
        candidates = [
            c for c in self._placement_candidates()
            if c not in (record["dest"], record["source"])
        ]
        dest = self._least_loaded(candidates)
        if dest is None:
            return
        record["redispatched"] = True
        plan = self._plans[record["plan_id"]]
        retry = self._enqueue_migration(instance, dest, "failover", plan)
        retry["redispatched"] = True

    def _flip(self, record: dict, instance, snapshot: Optional[dict],
              snapshot_time: float) -> None:
        """The atomic ownership flip: at one event time the instance
        changes host node, its store rewinds to the shipped snapshot,
        the replay delta lands on the destination flow, and the owner
        map + ownership log advance."""
        job = self.job
        stage = job.stage(instance.spec.name)
        dest = self._node(record["dest"])
        now = self.sim.now
        # replay-rate estimate, taken before the topology mutates
        stage_rate = sum(f.arrival_rate for f in stage.flows.values())
        per_instance = stage_rate / max(1, len(stage.instances))
        if record["kind"] == "failover":
            # the source is fenced/dead: discard its flush bookkeeping;
            # any in-flight flush job is epoch-guarded into a no-op
            instance.restart_epoch += 1
            instance.flush_in_flight = 0
            instance.blocked = False
            # the partition is reborn on a healthy host: the crash flag
            # belongs to the fenced source node, and end_crash() there
            # can no longer reach an instance that has moved away
            instance.crashed = False
        drained = job.relocate_instance(instance, dest)
        if instance.store is not None:
            record["digest_source"] = state_digest(snapshot)
            instance.store.restore_from_checkpoint(snapshot)
            record["digest_restored"] = state_digest(
                {"levels": instance.store.levels.snapshot()}
            )
            self._recompute_stall(instance)
        replay_until = self._fence_time.get(record["source"], now)
        replay = per_instance * max(0.0, replay_until - snapshot_time)
        replay += drained
        if replay > 0:
            stage.flows[dest.name].add_backlog(replay)
        record["replayed_messages"] = replay
        previous = self.owner.get(record["partition"])
        self.owner[record["partition"]] = dest.name
        self.ownership_log.append({
            "time": now,
            "partition": record["partition"],
            "from": previous,
            "to": dest.name,
            "reason": record["kind"],
        })
        self._instant(
            "ownership-flip", record["partition"],
            source=record["source"], dest=dest.name, kind=record["kind"],
        )
        if self.spec.handover_pause_s > 0 and instance.store is not None:
            instance.blocked = True
            stage.update_blocked(dest.name)
            self.sim.schedule_after(
                self.spec.handover_pause_s, self._end_handover,
                instance, stage,
            )
        record["status"] = "completed"
        record["end"] = now

    def _end_handover(self, instance, stage) -> None:
        if instance.flush_in_flight == 0 and not instance.crashed:
            instance.blocked = False
            stage.update_blocked(instance.node.name)

    def _migration_done(self, record: dict) -> None:
        self._active_migrations -= 1
        plan = self._plans.get(record["plan_id"])
        if plan is not None:
            plan["pending"].discard(record["partition"])
            self._close_plan_if_empty(plan)
        if record["kind"] == "drain":
            self._retire_if_empty(record["source"])
        while (self._migration_queue
               and self._active_migrations < self.spec.max_parallel_migrations):
            self._start_migration(self._migration_queue.popleft())

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def unowned_partitions(self) -> List[str]:
        hosted = set()
        for stage in self.job.stages:
            for instances in stage.instances_by_node.values():
                hosted.update(inst.name for inst in instances)
        expected = set()
        for stage in self.job.stages:
            expected.update(inst.name for inst in stage.instances)
        return sorted(expected - hosted)

    def in_flight_migrations(self) -> int:
        return sum(
            1 for r in self.migrations
            if r["status"] in ("pending", "transferring")
        )

    def report(self) -> dict:
        """JSON-plain digest for RunSummary / the CLI."""
        def public(record: dict) -> dict:
            out = dict(record)
            out.pop("deadline", None)
            return out

        return {
            "spec": self.spec.to_dict(),
            "nodes": {
                "live": sorted(self.live),
                "retired": sorted(self.retired),
                "fenced": sorted(self.fenced),
                "down": sorted(self.down),
                "partitioned": sorted(self.partitioned),
            },
            "membership": [dict(entry) for entry in self.membership_log],
            "suspicions": [dict(entry) for entry in self.detector.transitions],
            "migrations": [public(record) for record in self.migrations],
            "ownership_flips": len(self.ownership_log),
            "unowned_partitions": self.unowned_partitions(),
            "in_flight_migrations": self.in_flight_migrations(),
            "windows": [
                [label, start, end] for label, start, end in self.windows
            ],
        }


def _snapshot_bytes(snapshot: Optional[dict]) -> int:
    if snapshot is None:
        return 0
    return int(sum(
        t.logical_bytes for level in snapshot.get("levels", [])
        for t in level
    ))

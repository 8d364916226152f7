"""Runtime invariant checking under fault injection.

A registry of named invariant functions is sampled on a fixed cadence
while the job runs (plus once at the end).  Each invariant inspects the
live job and yields ``(message, details)`` for every violation it finds;
violations are recorded, emitted as ``invariant-violation`` trace
instants (category ``"invariant"``) so Perfetto and the millibottleneck
detector can line them up with latency spikes, and — in
``halt_on_violation`` mode — abort the simulation.

Registered invariants:

``record-accounting``
    Exactly-once conservation per flow: arrived + replayed records equal
    served + dropped + queued, up to float rounding.
``watermark-monotonic``
    Each flow's cumulative served count (its processing watermark) never
    moves backwards between samples.
``checkpoint-barriers``
    No lost barriers: checkpoint ids strictly increase, every record is
    in a legal state with consistent timestamps, and the coordinator's
    in-flight counter matches the records.
``lsm-consistency``
    Every store's level structure is valid (level claims, L1+
    non-overlap) and no deep level has run away past 50× its size
    target.  Deliberately *structural* only: L0 counts are allowed to
    pile up under a compaction stall — that is the scenario under test,
    not a bug.
``single-owner-per-partition``
    Every stage instance is hosted on exactly one node at every sample
    time, its node pointer agrees with the host maps, and — when the
    elastic cluster layer is installed — the coordinator's ownership
    map matches reality and its ownership log is contiguous (each
    flip's ``from`` is the previous flip's ``to``).
``migration-no-lost-state``
    Every completed state migration restored exactly the level
    structure it shipped (shape digests match), and no transfer is
    stuck past its deadline.  A no-op without the cluster layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import LSMError, SimulationError
from ..serialize import register
from ..sim.process import spawn
from ..stream.engine import Subsystem

__all__ = [
    "INVARIANTS",
    "InvariantChecker",
    "InvariantViolation",
    "invariant",
]


@register
@dataclass
class InvariantViolation:
    """One recorded invariant violation."""

    invariant: str
    time: float
    message: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "time": self.time,
            "message": self.message,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: dict) -> InvariantViolation:
        return cls(
            invariant=data["invariant"],
            time=data["time"],
            message=data["message"],
            details=dict(data.get("details") or {}),
        )


#: name -> function(checker, job) yielding (message, details) pairs.
INVARIANTS: Dict[str, Callable] = {}


def invariant(name: str):
    """Register an invariant function under *name*."""

    def decorate(fn):
        INVARIANTS[name] = fn
        return fn

    return decorate


class InvariantChecker(Subsystem):
    """Samples the registered invariants over a running job."""

    def __init__(
        self,
        sample_interval_s: float = 1.0,
        names: Optional[Iterable[str]] = None,
        halt_on_violation: bool = False,
    ) -> None:
        if sample_interval_s <= 0:
            raise SimulationError("sample interval must be positive")
        self.sample_interval_s = sample_interval_s
        self.names: Optional[Tuple[str, ...]] = None
        if names is not None:
            selected = tuple(names)
            for name in selected:
                if name not in INVARIANTS:
                    raise SimulationError(
                        f"unknown invariant {name!r}; registered: "
                        f"{sorted(INVARIANTS)}"
                    )
            self.names = selected
        self.halt_on_violation = halt_on_violation
        self.violations: List[InvariantViolation] = []
        self.samples = 0
        self.job = None
        #: flow name -> last observed cumulative served count.
        self._watermarks: Dict[str, float] = {}

    def install(self, job) -> InvariantChecker:
        if self.job is not None:
            raise SimulationError("invariant checker is already installed")
        job.attach("invariants", self)
        self.job = job
        spawn(job.sim, self._loop(), name="invariant-checker")
        return self

    def _loop(self):
        while True:
            yield self.sample_interval_s
            self.check_now()

    def _selected(self):
        if self.names is None:
            return list(INVARIANTS.items())
        return [(name, INVARIANTS[name]) for name in self.names]

    def check_now(self) -> List[InvariantViolation]:
        """Run every selected invariant once; returns new violations."""
        if self.job is None:
            raise SimulationError("invariant checker is not installed")
        self.samples += 1
        found = []
        for name, fn in self._selected():
            for message, details in fn(self, self.job):
                found.append(self._record(name, message, details))
        return found

    def _record(self, name: str, message: str, details: dict) -> InvariantViolation:
        violation = InvariantViolation(
            invariant=name, time=self.job.sim.now, message=message, details=details
        )
        self.violations.append(violation)
        tracer = self.job.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "invariant-violation", "invariant", self.job.sim.now,
                tid="invariants", invariant=name, message=message,
            )
        if self.halt_on_violation:
            self.job.sim.abort(f"invariant {name}: {message}")
        return violation

    def finalize(self, now: float) -> None:
        """One last full check at end of run (called by the engine)."""
        self.check_now()

    def to_dicts(self) -> List[dict]:
        return [violation.to_dict() for violation in self.violations]


# ----------------------------------------------------------------------
# registered invariants
# ----------------------------------------------------------------------


@invariant("record-accounting")
def _record_accounting(checker: InvariantChecker, job):
    for stage in job.stages:
        for flow in stage.flows.values():
            balance = flow.accounting_balance()
            volume = flow.total_arrived + flow.replayed_messages
            tolerance = max(1e-3, 1e-7 * volume)
            if abs(balance) > tolerance:
                yield (
                    f"flow {flow.name} leaks records: balance "
                    f"{balance:.6f} of {volume:.1f} arrived",
                    {"flow": flow.name, "balance": balance,
                     "arrived": flow.total_arrived,
                     "served": flow.total_served,
                     "dropped": flow.dropped_messages,
                     "replayed": flow.replayed_messages},
                )


@invariant("watermark-monotonic")
def _watermark_monotonic(checker: InvariantChecker, job):
    now = job.sim.now
    for stage in job.stages:
        for flow in stage.flows.values():
            flow.sync(now)
            last = checker._watermarks.get(flow.name)
            if last is not None and flow.total_served < last - 1e-6:
                yield (
                    f"flow {flow.name} watermark went backwards: "
                    f"{flow.total_served:.3f} < {last:.3f}",
                    {"flow": flow.name, "watermark": flow.total_served,
                     "previous": last},
                )
            checker._watermarks[flow.name] = flow.total_served


@invariant("checkpoint-barriers")
def _checkpoint_barriers(checker: InvariantChecker, job):
    coordinator = job.coordinator
    records = coordinator.records
    ids = [record.checkpoint_id for record in records]
    if ids != sorted(ids) or len(set(ids)) != len(ids):
        yield ("checkpoint ids are not strictly increasing", {"ids": ids})
    in_flight = 0
    for record in records:
        if record.state == "in-flight":
            in_flight += 1
        elif record.state == "completed":
            if record.completed_at is None or record.completed_at < record.triggered_at:
                yield (
                    f"checkpoint #{record.checkpoint_id} completed before "
                    "its trigger",
                    {"checkpoint_id": record.checkpoint_id,
                     "triggered_at": record.triggered_at,
                     "completed_at": record.completed_at},
                )
        elif record.state == "aborted":
            if record.aborted_at is None:
                yield (
                    f"checkpoint #{record.checkpoint_id} aborted without "
                    "a timestamp",
                    {"checkpoint_id": record.checkpoint_id},
                )
        else:
            yield (
                f"checkpoint #{record.checkpoint_id} in unknown state "
                f"{record.state!r}",
                {"checkpoint_id": record.checkpoint_id,
                 "state": record.state},
            )
    if in_flight != coordinator.in_flight:
        yield (
            f"lost checkpoint barrier: {in_flight} records in flight but "
            f"the coordinator tracks {coordinator.in_flight}",
            {"records_in_flight": in_flight,
             "coordinator_in_flight": coordinator.in_flight},
        )


@invariant("lsm-consistency")
def _lsm_consistency(checker: InvariantChecker, job):
    for stage in job.stages:
        for instance in stage.instances:
            store = instance.store
            if store is None:
                continue
            try:
                store.check_invariants()
            except LSMError as exc:
                yield (f"store {store.name}: {exc}", {"store": store.name})
            if store.memtable_bytes < 0:
                yield (
                    f"store {store.name}: negative memtable size "
                    f"{store.memtable_bytes}",
                    {"store": store.name, "bytes": store.memtable_bytes},
                )
            options = store.options
            for index in range(2, store.levels.num_levels):
                limit = options.max_bytes_for_level(index)
                size = store.levels.level_bytes(index)
                if limit and size > 50 * limit:
                    yield (
                        f"store {store.name}: L{index} holds {size} bytes, "
                        f"over 50x its {limit:.0f}-byte target",
                        {"store": store.name, "level": index,
                         "bytes": size, "limit": limit},
                    )


@invariant("single-owner-per-partition")
def _single_owner_per_partition(checker: InvariantChecker, job):
    hosts: Dict[str, str] = {}
    for stage in job.stages:
        for node_name in sorted(stage.instances_by_node):
            for instance in stage.instances_by_node[node_name]:
                previous = hosts.get(instance.name)
                if previous is not None:
                    yield (
                        f"partition {instance.name} hosted on both "
                        f"{previous} and {node_name}",
                        {"partition": instance.name,
                         "hosts": [previous, node_name]},
                    )
                hosts[instance.name] = node_name
                if instance.node.name != node_name:
                    yield (
                        f"partition {instance.name} host map says "
                        f"{node_name} but the instance points at "
                        f"{instance.node.name}",
                        {"partition": instance.name, "host_map": node_name,
                         "instance_node": instance.node.name},
                    )
        for instance in stage.instances:
            if instance.name not in hosts:
                yield (
                    f"partition {instance.name} is hosted nowhere",
                    {"partition": instance.name},
                )
    manager = job.subsystems.get("cluster")
    if manager is None:
        return
    for name in sorted(manager.owner):
        host = hosts.get(name)
        if host is not None and manager.owner[name] != host:
            yield (
                f"ownership map says {manager.owner[name]} owns {name} "
                f"but it is hosted on {host}",
                {"partition": name, "owner": manager.owner[name],
                 "host": host},
            )
    last_to: Dict[str, str] = {}
    for entry in manager.ownership_log:
        partition = entry["partition"]
        previous = last_to.get(partition)
        if previous is not None and entry["from"] != previous:
            yield (
                f"ownership log for {partition} is discontiguous: flip "
                f"from {entry['from']} but the previous owner was "
                f"{previous}",
                {"partition": partition, "from": entry["from"],
                 "previous": previous, "time": entry["time"]},
            )
        last_to[partition] = entry["to"]


@invariant("migration-no-lost-state")
def _migration_no_lost_state(checker: InvariantChecker, job):
    manager = job.subsystems.get("cluster")
    if manager is None:
        return
    now = job.sim.now
    for record in manager.migrations:
        shipped = record.get("digest_source")
        restored = record.get("digest_restored")
        intact = shipped == restored
        if shipped == "cold":
            # failover before the first checkpoint completed: nothing
            # durable existed, so restoring an empty store IS lossless
            intact = restored is None or restored == "empty" or (
                set(restored.split("|")) <= {"0/0"}
            )
        if (record["status"] == "completed" and shipped is not None
                and not intact):
            yield (
                f"migration #{record['id']} of {record['partition']} lost "
                f"state: shipped {record['digest_source']} but restored "
                f"{record.get('digest_restored')}",
                {"migration": record["id"],
                 "partition": record["partition"],
                 "shipped": record["digest_source"],
                 "restored": record.get("digest_restored")},
            )
        deadline = record.get("deadline")
        if (record["status"] == "transferring" and deadline is not None
                and now > deadline + 10.0):
            yield (
                f"migration #{record['id']} of {record['partition']} stuck "
                f"in transfer {now - deadline:.1f}s past its deadline",
                {"migration": record["id"],
                 "partition": record["partition"], "deadline": deadline},
            )

"""The declared catalog of synchronization primitives.

The paper's thesis is that tail latency comes from *hidden*
synchronization — blocking edges nobody declared.  This module is the
"declared" side of that argument: every synchronization primitive the
simulation intentionally contains, written down with its owner, kind
and the runtime wait-edge kinds it explains.

The static rules (:mod:`repro.sanitize.syncgraph.rules`) treat a sync
call that is **not** in this catalog as DS202; the dynamic audit
(:mod:`repro.sanitize.syncgraph.waitgraph`) diffs the runtime wait-for
graph against :func:`declared_edge_kinds` and reports unmatched edges
as **shadow sync**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "SyncPrimitive",
    "SYNC_CATALOG",
    "OWNERSHIP_TRANSFERS",
    "DECLARED_SYNC_MODULES",
    "primitives_by_method",
    "declared_edge_kinds",
]


@dataclass(frozen=True)
class SyncPrimitive:
    """One declared synchronization point."""

    name: str
    #: Owning class (or module for module-level primitives).
    owner: str
    #: Method that exercises the primitive; ``None`` for module grants.
    method: Optional[str]
    #: "queue" | "gate" | "barrier" | "hold" | "fence" | "shadow"
    kind: str
    #: True when a call can block/suspend other progress.
    blocking: bool = False
    #: Runtime wait-edge kinds this primitive explains (see waitgraph).
    edge_kinds: Tuple[str, ...] = ()
    rationale: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "owner": self.owner,
            "method": self.method,
            "kind": self.kind,
            "blocking": self.blocking,
            "edge_kinds": list(self.edge_kinds),
            "rationale": self.rationale,
        }


SYNC_CATALOG: Tuple[SyncPrimitive, ...] = (
    SyncPrimitive(
        name="threadpool.submit",
        owner="SimThreadPool",
        method="submit",
        kind="queue",
        edge_kinds=("pool-queue",),
        rationale="bounded worker pool: jobs queue when all threads are "
                  "busy; the queued:NAME spans are this wait",
    ),
    SyncPrimitive(
        name="threadpool.pause",
        owner="SimThreadPool",
        method="pause",
        kind="gate",
        blocking=True,
        edge_kinds=("pool-stall",),
        rationale="fault injection and crash handling freeze job starts; "
                  "queued work blocks until the matching resume",
    ),
    SyncPrimitive(
        name="threadpool.resume",
        owner="SimThreadPool",
        method="resume",
        kind="gate",
        edge_kinds=("pool-stall",),
        rationale="releases a pause; the pause..resume interval is the "
                  "pool-stall wait edge",
    ),
    SyncPrimitive(
        name="checkpoint.trigger",
        owner="CheckpointCoordinator",
        method="trigger",
        kind="barrier",
        blocking=True,
        edge_kinds=("checkpoint-barrier",),
        rationale="the checkpoint barrier: every stateful instance must "
                  "flush and ack before the checkpoint completes",
    ),
    SyncPrimitive(
        name="checkpoint.abort",
        owner="CheckpointCoordinator",
        method="abort_in_flight",
        kind="barrier",
        edge_kinds=("checkpoint-barrier",),
        rationale="crash/fence handling tears down the barrier; late "
                  "acks are dropped by record state",
    ),
    SyncPrimitive(
        name="backend.flush",
        owner="LSMStateBackend",
        method="flush_instance",
        kind="gate",
        blocking=True,
        edge_kinds=("flush-block",),
        rationale="a flush freezes the instance's memtable writes "
                  "(instance.blocked) until the flush job completes",
    ),
    SyncPrimitive(
        name="backend.submission-hold",
        owner="LSMStateBackend",
        method="submission_hold",
        kind="hold",
        edge_kinds=("compaction-hold",),
        rationale="scheduling policies delay compaction submission; the "
                  "hold is a deliberate, bounded wait",
    ),
    SyncPrimitive(
        name="levels.claim",
        owner="LevelManager",
        method="claim",
        kind="gate",
        rationale="in-flight gate: picked runs are claimed so concurrent "
                  "same-level compactions cannot overlap",
    ),
    SyncPrimitive(
        name="levels.l0-gate",
        owner="LevelManager",
        method="build_l0_pick",
        kind="gate",
        rationale="l0_compaction_in_flight gate: one L0 compaction at a "
                  "time per store",
    ),
    SyncPrimitive(
        name="levels.level-gate",
        owner="LevelManager",
        method="build_level_pick",
        kind="gate",
        rationale="level_claimed gate for L1+ picks",
    ),
    SyncPrimitive(
        name="cluster.fence",
        owner="ClusterManager",
        method="_fence",
        kind="fence",
        blocking=True,
        edge_kinds=("migration-fence",),
        rationale="suspected nodes are fenced: in-flight checkpoints "
                  "abort and the node's partitions stop serving until "
                  "ownership flips",
    ),
    SyncPrimitive(
        name="cluster.unfence",
        owner="ClusterManager",
        method="_unfence",
        kind="fence",
        edge_kinds=("migration-fence",),
        rationale="revived nodes re-enter service; ends the fence window",
    ),
    SyncPrimitive(
        name="shadow.compaction-checkpoint",
        owner="LSMStateBackend",
        method=None,
        kind="shadow",
        blocking=True,
        edge_kinds=("compaction-during-checkpoint",),
        rationale="THE paper edge: checkpoint-triggered flushes spawn "
                  "compactions that contend with the barrier on the same "
                  "pools/devices.  No code path declares it — it emerges "
                  "from flush debt — so it is cataloged here as a known "
                  "shadow edge after this analyzer first surfaced it",
    ),
)

#: Module-level synchronization grants: real concurrency primitives the
#: harness (not the simulation) is allowed to use.
DECLARED_SYNC_MODULES: Dict[str, str] = {
    "multiprocessing": "experiment executor / shard fan-out: process "
                       "pools live outside the simulated clock",
    "concurrent": "experiment executor / shard fan-out: the spawn "
                  "ProcessPoolExecutor lives outside the simulated clock",
}

#: Attributes written by more than one class *by design* — the ownership
#: of the field transfers with the object along a declared protocol.
OWNERSHIP_TRANSFERS: Dict[str, str] = {
    "blocked": "instance.blocked is set by the backend at flush start "
               "and cleared by the flush completion callback; the "
               "engine only reads it",
    "flush_in_flight": "flush reference count: incremented at submit, "
                       "decremented by the completion callback of the "
                       "same flush (epoch-guarded against abandoned flushes)",
    "stall_level": "write-stall level is re-derived from the store's "
                   "L0 count by state_backend.stall_level, after every "
                   "flush/compaction completion and every restore; "
                   "single logical writer",
    "end_time": "job completion stamp: written once by the executing "
                "pool when the job leaves the active set, then the job "
                "object is handed to metrics read-only",
    "start_time": "job start stamp: written by whichever executor "
                  "(pool thread or PS resource) admits the job; the "
                  "job object is owned by its executor while running",
    "crashed": "instance.crashed flips on the crash/revive handoff "
               "between WorkerNode (fault path) and ClusterManager "
               "(migration path); both run on the single-threaded "
               "simulated clock",
    "_queue": "EventQueue membership backref: the kernel's heap "
              "bookkeeping sets/clears event._queue when an event is "
              "scheduled, cancelled or drained — the queue owns the "
              "event while it is enqueued",
    "compaction_input_mb": "MetricsCollector aggregates compaction "
                           "input into the per-checkpoint stats row it "
                           "owns until the row is published read-only",
}


def primitives_by_method() -> Dict[str, SyncPrimitive]:
    """``method name -> primitive`` for every method-matched entry."""
    return {
        p.method: p for p in SYNC_CATALOG if p.method is not None
    }


def declared_edge_kinds(
    catalog: Tuple[SyncPrimitive, ...] = SYNC_CATALOG,
) -> Dict[str, str]:
    """``runtime edge kind -> primitive name`` declaration map."""
    declared: Dict[str, str] = {}
    for primitive in catalog:
        for kind in primitive.edge_kinds:
            declared.setdefault(kind, primitive.name)
    return declared

"""The checkpoint coordinator (Flink's periodic, coordinated snapshots).

Every ``interval_s`` the coordinator triggers a global checkpoint: each
stateful stage instance flushes its memtable (the synchronous part that
stalls that instance), and when every flush of the checkpoint has
completed the new SSTables are shipped asynchronously to HDFS.  The
trigger is *simultaneous across all instances* — the second
pre-condition of ShadowSync (§4.1): hundreds of flushes start together,
so any compactions they trip also start together.

The coordinator also owns the recovery path exercised by fault
injection: each instance's ack captures a state snapshot (level
structure + WAL frontier), a completed checkpoint promotes those
snapshots to the instance's restore point, and
:meth:`CheckpointCoordinator.restore_instance` rewinds a crashed
instance's store to it in place.  Checkpoints caught by a crash (or by
the configured ``timeout_s``) are *aborted*: late acks are dropped and
their snapshots are never restored from.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import CheckpointConfig
from ..metrics.collector import MetricsCollector
from ..sim.events import HIGH_PRIORITY
from ..sim.kernel import Simulator
from ..sim.process import spawn
from ..storage.hdfs import HdfsBackup
from .stage import Stage, StageInstance
from .state_backend import LSMStateBackend

__all__ = ["CheckpointRecord", "CheckpointCoordinator"]


class CheckpointRecord:
    """Outcome of one checkpoint."""

    __slots__ = (
        "checkpoint_id",
        "triggered_at",
        "completed_at",
        "aborted_at",
        "abort_reason",
        "state",
        "bytes",
        "flushes",
        "snapshots",
    )

    def __init__(self, checkpoint_id: int, triggered_at: float) -> None:
        self.checkpoint_id = checkpoint_id
        self.triggered_at = triggered_at
        self.completed_at: Optional[float] = None
        self.aborted_at: Optional[float] = None
        self.abort_reason: Optional[str] = None
        #: "in-flight" → "completed" | "aborted".
        self.state = "in-flight"
        self.bytes = 0
        self.flushes = 0
        #: instance name -> state snapshot captured at its flush ack.
        self.snapshots: Dict[str, dict] = {}

    @property
    def duration(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.triggered_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Checkpoint #{self.checkpoint_id} at {self.triggered_at:.1f}s "
            f"state={self.state} bytes={self.bytes} flushes={self.flushes}>"
        )


class CheckpointCoordinator:
    """Triggers checkpoints, tracks their completion, restores state."""

    def __init__(
        self,
        sim: Simulator,
        config: CheckpointConfig,
        stages: List[Stage],
        backend: LSMStateBackend,
        collector: Optional[MetricsCollector] = None,
        hdfs: Optional[HdfsBackup] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.stages = stages
        self.backend = backend
        self.collector = collector
        self.hdfs = hdfs
        self.records: List[CheckpointRecord] = []
        self._next_id = 0
        self._in_flight = 0
        self.skipped_overlapping = 0
        #: Checkpoint timeout in effect for *future* triggers; starts as
        #: the config value and may be changed by fault injection.
        self.timeout_s: Optional[float] = config.timeout_s
        #: Multiplier on the configured interval for *future* triggers.
        #: 1.0 normally; the resilience guard stretches it (> 1.0) in
        #: degraded mode to shed checkpoint-induced flush load.
        self.interval_scale: float = 1.0
        #: Optional hook replacing the direct HDFS upload of a completed
        #: checkpoint: called with ``(record)``.  The resilience layer
        #: installs a retry/deadline/circuit-breaker wrapper here.
        self.uploader = None
        #: instance name -> (checkpoint_id, triggered_at, snapshot) of
        #: the newest *completed* checkpoint covering that instance.
        self._latest_snapshot: Dict[str, Tuple[int, float, dict]] = {}
        #: Restore operations performed, for summaries and tests.
        self.restore_events: List[dict] = []

    def start(self) -> None:
        # A trigger time t is the *boundary* of the interval it closes:
        # state accumulated strictly before t belongs to this checkpoint,
        # accounting ticks landing exactly at t to the next one.  The
        # HIGH_PRIORITY wake-up makes that ordering explicit; without it
        # the trigger races the per-instance accounting ticks scheduled
        # for the same timestamp (found by repro.sanitize's race
        # detector as a flushed-vs-refilled memtable divergence).
        spawn(
            self.sim,
            self._loop(),
            name="checkpoint-coordinator",
            priority=HIGH_PRIORITY,
        )

    def _loop(self):
        yield max(0.0, self.config.first_at_s - self.sim.now)
        while True:
            # The periodic barrier is the paper's declared sync point
            # (checkpoint.trigger in SYNC_CATALOG); this loop exists
            # to exercise it.
            # repro: allow[DS201] declared checkpoint barrier
            self.trigger()
            yield self.config.interval_s * self.interval_scale

    # ------------------------------------------------------------------

    def trigger(self) -> Optional[CheckpointRecord]:
        """Fire one checkpoint now; returns its record (or ``None`` when
        an overlapping checkpoint was rejected by configuration)."""
        tracer = self.sim.tracer
        if not self.config.allow_overlap and self._in_flight > 0:
            self.skipped_overlapping += 1
            if tracer.enabled:
                tracer.instant(
                    "checkpoint-skipped",
                    "checkpoint",
                    self.sim.now,
                    tid="coordinator",
                    in_flight=self._in_flight,
                )
            return None
        self._next_id += 1
        record = CheckpointRecord(self._next_id, self.sim.now)
        self.records.append(record)
        if tracer.enabled:
            tracer.instant(
                "checkpoint-trigger",
                "checkpoint",
                self.sim.now,
                tid="coordinator",
                checkpoint_id=record.checkpoint_id,
            )
        if self.collector is not None:
            self.collector.note_checkpoint(self.sim.now)

        pending = [0]  # boxed counter shared by the ack closures
        self._in_flight += 1
        if self.timeout_s is not None:
            self.sim.schedule_after(self.timeout_s, self._check_timeout, record)

        def make_ack(instance: StageInstance):
            def ack(nbytes: int) -> None:
                if record.state != "in-flight":
                    return  # aborted (crash or timeout): drop late acks
                self._capture_snapshot(record, instance)
                record.bytes += nbytes
                if nbytes > 0:
                    record.flushes += 1
                pending[0] -= 1
                if tracer.enabled:
                    tracer.instant(
                        "checkpoint-ack",
                        "checkpoint",
                        self.sim.now,
                        tid="coordinator",
                        checkpoint_id=record.checkpoint_id,
                        bytes=nbytes,
                        pending=pending[0],
                    )
                if pending[0] == 0:
                    self._complete(record)

            return ack

        instances = [
            instance
            for stage in self.stages
            if stage.spec.stateful
            for instance in stage.instances
        ]
        pending[0] = len(instances)
        if not instances:
            self._complete(record)
            return record
        for instance in instances:
            # Barrier semantics require every stateful instance to
            # flush before acking; this is checkpoint.trigger's
            # declared blocking edge (flush-block in the catalog).
            # repro: allow[DS201] declared barrier flush (backend.flush)
            self.backend.flush_instance(
                instance, reason="checkpoint", on_done=make_ack(instance)
            )
        return record

    def _capture_snapshot(
        self, record: CheckpointRecord, instance: StageInstance
    ) -> None:
        store = instance.store
        if store is None:
            return
        record.snapshots[instance.name] = store.snapshot_state()

    def _complete(self, record: CheckpointRecord) -> None:
        if record.state != "in-flight":
            return
        record.state = "completed"
        record.completed_at = self.sim.now
        self._in_flight -= 1
        for name, snapshot in record.snapshots.items():
            latest = self._latest_snapshot.get(name)
            if latest is None or latest[0] < record.checkpoint_id:
                self._latest_snapshot[name] = (
                    record.checkpoint_id, record.triggered_at, snapshot,
                )
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.complete(
                f"checkpoint-{record.checkpoint_id}",
                "checkpoint",
                record.triggered_at,
                record.duration or 0.0,
                tid="coordinator",
                checkpoint_id=record.checkpoint_id,
                bytes=record.bytes,
                flushes=record.flushes,
            )
        if self.uploader is not None:
            self.uploader(record)
        elif self.hdfs is not None:
            self.hdfs.backup(record.checkpoint_id, record.bytes)

    # ------------------------------------------------------------------
    # abort / timeout
    # ------------------------------------------------------------------

    def abort_in_flight(self, reason: str = "abort") -> List[CheckpointRecord]:
        """Abort every in-flight checkpoint (a worker crashed mid-barrier)."""
        aborted = [r for r in self.records if r.state == "in-flight"]
        for record in aborted:
            self._abort(record, reason)
        return aborted

    def _abort(self, record: CheckpointRecord, reason: str) -> None:
        if record.state != "in-flight":
            return
        record.state = "aborted"
        record.aborted_at = self.sim.now
        record.abort_reason = reason
        # an aborted checkpoint must never become a restore point
        record.snapshots.clear()
        self._in_flight -= 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "checkpoint-abort",
                "checkpoint",
                self.sim.now,
                tid="coordinator",
                checkpoint_id=record.checkpoint_id,
                reason=reason,
            )

    def _check_timeout(self, record: CheckpointRecord) -> None:
        if record.state == "in-flight":
            self._abort(record, "timeout")

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def latest_snapshot(self, instance_name: str) -> Optional[Tuple[int, float, dict]]:
        return self._latest_snapshot.get(instance_name)

    def last_completed_time(self) -> float:
        """Trigger time of the newest completed checkpoint (0 = none)."""
        done = [r.triggered_at for r in self.records if r.state == "completed"]
        return max(done) if done else 0.0

    def restore_instance(self, instance: StageInstance) -> dict:
        """Rewind *instance*'s store to its newest completed snapshot.

        A store that was never covered by a completed checkpoint is reset
        to a cold start (empty levels; WAL replay still applies).  The
        store object is mutated **in place** — the engine's accounting
        loops keep their references.  Returns a restore-info dict with
        ``checkpoint_id`` (``None`` = cold start) and ``snapshot_time``.
        """
        store = instance.store
        entry = self._latest_snapshot.get(instance.name)
        if store is None:
            info = {"instance": instance.name, "checkpoint_id": None,
                    "snapshot_time": self.last_completed_time(),
                    "restored": False}
        elif entry is None:
            store.restore_from_checkpoint(None)
            info = {"instance": instance.name, "checkpoint_id": None,
                    "snapshot_time": 0.0, "restored": True}
        else:
            checkpoint_id, triggered_at, snapshot = entry
            store.restore_from_checkpoint(snapshot)
            info = {"instance": instance.name, "checkpoint_id": checkpoint_id,
                    "snapshot_time": triggered_at, "restored": True}
        self.restore_events.append(dict(info, time=self.sim.now))
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                "checkpoint-restore",
                "checkpoint",
                self.sim.now,
                tid="coordinator",
                instance=instance.name,
                checkpoint_id=info["checkpoint_id"],
            )
        return info

    # ------------------------------------------------------------------

    @property
    def completed(self) -> List[CheckpointRecord]:
        return [r for r in self.records if r.state == "completed"]

    @property
    def aborted(self) -> List[CheckpointRecord]:
        return [r for r in self.records if r.state == "aborted"]

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def checkpoint_times(self) -> List[float]:
        return [r.triggered_at for r in self.records]

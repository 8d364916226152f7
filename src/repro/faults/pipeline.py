"""A checkpointed WordCount data plane for recovery-equivalence tests.

:class:`CheckpointedWordCount` runs the §5.2 WordCount pipeline —
Kafka topic → per-partition LSM word counters — with coordinated
checkpoints (flush + state snapshot + offset commit, all atomic) and a
crash model that exercises the real recovery path:
:meth:`LSMStore.restore_from_checkpoint` plus
:meth:`KafkaBroker.restore_offsets`.

The equivalence property the test harness checks: for any crash
schedule, the final word counts equal the fault-free reference
reduction.  Without a WAL that holds because recovery rewinds *both*
state and offsets to the same checkpoint and replays; with a WAL it
holds because the log replays the puts the memtable lost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import SimulationError
from ..lsm.options import LSMOptions
from ..lsm.store import LSMStore
from ..stream.kafka import KafkaBroker
from ..stream.messages import Record

__all__ = ["CheckpointedWordCount"]


class CheckpointedWordCount:
    """WordCount with coordinated checkpoints and crash recovery."""

    def __init__(
        self,
        partitions: int = 2,
        wal_enabled: bool = False,
        write_buffer_kib: int = 32,
        topic: str = "lines",
        group: str = "wordcount",
        compaction_policy: str = "reference",
    ) -> None:
        if partitions < 1:
            raise SimulationError("need at least one partition")
        self.partitions = partitions
        self.wal_enabled = wal_enabled
        self.group = group
        self.broker = KafkaBroker()
        self.topic = self.broker.create_topic(topic, partitions=partitions)
        self.stores: List[LSMStore] = [
            LSMStore(
                LSMOptions(
                    wal_enabled=wal_enabled,
                    write_buffer_size=write_buffer_kib * 1024,
                    compaction_policy=compaction_policy,
                ),
                name=f"count/{p}",
            )
            for p in range(partitions)
        ]
        #: partition -> next offset to read (the processing frontier;
        #: runs ahead of the broker's *committed* offset between
        #: checkpoints).
        self.processed: Dict[int, int] = {p: 0 for p in range(partitions)}
        #: partition -> state snapshot of the last checkpoint.
        self._snapshots: Dict[int, dict] = {}
        self._checkpoint_offsets: Dict[tuple, int] = {}
        self._clock = 0.0
        self.checkpoints = 0
        self.crashes = 0

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------

    def produce(self, records: Iterable[Record]) -> int:
        count = 0
        for record in records:
            self.topic.produce(record)
            count += 1
        return count

    def pending(self) -> int:
        """Records produced but not yet processed."""
        return sum(
            partition.end_offset - self.processed[partition.index]
            for partition in self.topic.partitions
        )

    def poll_once(self, max_records: int = 25) -> int:
        """Process up to *max_records* per partition; returns the total."""
        total = 0
        for partition in self.topic.partitions:
            index = partition.index
            batch = partition.read(self.processed[index], max_records)
            store = self.stores[index]
            for record in batch:
                self._apply(store, record)
            self.processed[index] += len(batch)
            total += len(batch)
        return total

    def _apply(self, store: LSMStore, record: Record) -> None:
        for word in record.value.decode().split():
            key = word.encode()
            current = store.get(key)
            store.put(key, str(int(current) + 1 if current else 1).encode())

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """One coordinated checkpoint: flush every store, snapshot its
        state, and commit the processing frontier — atomically."""
        for index, store in enumerate(self.stores):
            self._clock += 1.0
            flush = store.begin_flush(reason="checkpoint", now=self._clock)
            if flush is not None:
                store.finish_flush(flush, now=self._clock)
            while True:
                compaction = store.pick_compaction(now=self._clock)
                if compaction is None:
                    break
                store.finish_compaction(compaction, now=self._clock)
            self._snapshots[index] = store.snapshot_state()
            self.broker.commit(
                self.group, self.topic.name, index, self.processed[index]
            )
        self._checkpoint_offsets = self.broker.snapshot_offsets(self.group)
        self.checkpoints += 1

    def crash_and_recover(self) -> None:
        """Lose all memtables; rewind state *and* offsets to the last
        checkpoint (cold start when none completed yet) and resume."""
        self.crashes += 1
        self.broker.restore_offsets(self.group, dict(self._checkpoint_offsets))
        for index, store in enumerate(self.stores):
            store.restore_from_checkpoint(self._snapshots.get(index))
            if self.wal_enabled:
                # the WAL replayed every put since the snapshot, so the
                # processing frontier survives the crash
                continue
            self.processed[index] = self.broker.committed(
                self.group, self.topic.name, index
            )

    # ------------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Merged word counts across all partitions."""
        merged: Dict[str, int] = {}
        for store in self.stores:
            for word, count in store.scan():
                merged[word.decode()] = merged.get(word.decode(), 0) + int(count)
        return merged

    def run_to_completion(
        self,
        batch: int = 25,
        checkpoint_every: int = 3,
        crash_at_steps: Tuple[int, ...] = (),
        max_steps: Optional[int] = None,
    ) -> Dict[str, int]:
        """Drain the topic, checkpointing every *checkpoint_every* polls
        and crashing after the polls named in *crash_at_steps*."""
        crash_at = set(crash_at_steps)
        step = 0
        limit = max_steps if max_steps is not None else 10_000
        while self.pending() > 0:
            step += 1
            if step > limit:
                raise SimulationError("wordcount failed to drain the topic")
            self.poll_once(batch)
            if step % checkpoint_every == 0:
                self.checkpoint()
            if step in crash_at:
                self.crash_and_recover()
        self.checkpoint()  # final barrier: everything processed is durable
        return self.counts()

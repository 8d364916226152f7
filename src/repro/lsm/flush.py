"""Flush jobs: memtable → one L0 SSTable.

A flush has two halves with different timing roles:

* ``begin`` (instant): freeze the active memtable and install a fresh
  one — this is the moment the stage instance's writes stall;
* ``run``/``finish`` (takes simulated time): serialize the frozen
  memtable into an SSTable and install it at L0, bumping the L0 counter
  that drives the ShadowSync cycle.

The simulation engine charges the flush's CPU and I/O cost between
``begin`` and ``finish``; the pure data-plane work happens in
:meth:`FlushJob.run` so correctness is independently testable.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..errors import LSMError
from .memtable import MemTable
from .sstable import SSTable

__all__ = ["FlushJob"]

_flush_ids = itertools.count(1)


class FlushJob:
    """One flush of one frozen memtable."""

    def __init__(self, store, memtable: MemTable, reason: str, created_at: float) -> None:
        if not memtable.frozen:
            raise LSMError("flush job requires a frozen memtable")
        self.flush_id = next(_flush_ids)
        self.store = store
        self.memtable = memtable
        #: "checkpoint" (triggered by the coordinator) or "memtable-full".
        self.reason = reason
        self.created_at = created_at
        self.output: Optional[SSTable] = None

    @property
    def input_bytes(self) -> int:
        return self.memtable.size_bytes

    def trace_args(self) -> dict:
        """Plain-data identity of this flush for trace span/instant args."""
        return {
            "flush_id": self.flush_id,
            "reason": self.reason,
            "input_bytes": self.input_bytes,
            "created_at": self.created_at,
        }

    def run(self, now: float = 0.0) -> SSTable:
        """Serialize the memtable into an L0 SSTable (data plane)."""
        if self.output is not None:
            raise LSMError(f"flush #{self.flush_id} already ran")
        entries = [
            (key, value) for key, value in self.memtable.sorted_entries()
        ]
        self.output = SSTable(
            entries,
            logical_bytes=self.memtable.size_bytes,
            level=0,
            created_at=now,
        )
        return self.output

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ran = "done" if self.output is not None else "pending"
        return (
            f"<FlushJob #{self.flush_id} {self.reason} "
            f"bytes={self.input_bytes} {ran}>"
        )

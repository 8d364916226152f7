"""Immutable sorted runs (SSTables) and their k-way merge.

An SSTable is the unit the ShadowSync counters count: every flush adds
one to L0, and the L0 file count reaching the compaction trigger is what
fires a compaction burst.  Physically it is an immutable sorted list of
``(key, value)`` pairs with binary-search reads; logically it also
carries the byte volume it represents under sampled simulation (see
:mod:`repro.lsm.memtable`).
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import LSMError
from .memtable import TOMBSTONE

__all__ = ["SSTable", "merge_tables"]

_ids = itertools.count(1)


class SSTable:
    """An immutable sorted run of key/value entries."""

    __slots__ = ("table_id", "level", "_keys", "_values", "logical_bytes", "created_at")

    def __init__(
        self,
        entries: Sequence[Tuple[bytes, object]],
        logical_bytes: int,
        level: int = 0,
        created_at: float = 0.0,
    ) -> None:
        keys = [k for k, _v in entries]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise LSMError("SSTable entries must be strictly sorted by key")
        if logical_bytes < 0:
            raise LSMError("SSTable logical_bytes must be non-negative")
        self.table_id = next(_ids)
        self.level = level
        self._keys: List[bytes] = keys
        self._values: List[object] = [v for _k, v in entries]
        self.logical_bytes = logical_bytes
        self.created_at = created_at

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[object]:
        """Value for *key* (may be TOMBSTONE), or ``None`` if absent."""
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return self._values[idx]
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Tuple[bytes, object]]:
        return iter(zip(self._keys, self._values))

    def scan(
        self, low: Optional[bytes] = None, high: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, object]]:
        start = 0 if low is None else bisect.bisect_left(self._keys, low)
        for idx in range(start, len(self._keys)):
            if high is not None and self._keys[idx] >= high:
                break
            yield self._keys[idx], self._values[idx]

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------

    @property
    def min_key(self) -> Optional[bytes]:
        return self._keys[0] if self._keys else None

    @property
    def max_key(self) -> Optional[bytes]:
        return self._keys[-1] if self._keys else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SSTable #{self.table_id} L{self.level} entries={len(self)} "
            f"bytes={self.logical_bytes}>"
        )


def merge_tables(
    tables: Sequence[SSTable],
    drop_tombstones: bool,
    level: int,
    created_at: float = 0.0,
) -> SSTable:
    """K-way-merge *tables* into one table for *level*.

    Newer tables win on duplicate keys.  ``tables`` must be ordered
    newest-first (L0 order; for leveled inputs ranges are disjoint so
    the order is irrelevant).  Tombstones are dropped only when merging
    into the bottommost level — dropping them earlier would resurrect
    older versions below.
    """
    if not tables:
        raise LSMError("merge_tables needs at least one input")
    # Dict-merge: oldest table first, newer entries overwrite — same
    # newest-wins winner per key as a precedence-tagged k-way heap
    # merge, at a fraction of the per-entry cost.  Sorting the surviving
    # items afterwards restores the key order a streaming merge yields.
    winners: dict = {}
    for table in reversed(tables):
        for key, value in table:
            winners[key] = value
    if drop_tombstones:
        merged: List[Tuple[bytes, object]] = [
            (key, value)
            for key, value in sorted(winners.items())
            if value is not TOMBSTONE
        ]
    else:
        merged = sorted(winners.items())

    # Logical output volume shrinks by the observed dedup ratio of the
    # physical entries (updates/deletes collapse during compaction).
    input_logical = sum(t.logical_bytes for t in tables)
    input_physical = sum(len(t) for t in tables)
    ratio = (len(merged) / input_physical) if input_physical else 1.0
    logical = int(input_logical * ratio)
    return SSTable(merged, logical_bytes=logical, level=level, created_at=created_at)

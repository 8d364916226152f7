"""Leveled organization of SSTables (L0 … L6).

L0 holds whole flushed memtables, newest first, with overlapping key
ranges.  L1 and deeper hold non-overlapping sorted runs.  The level
manager answers the two questions the ShadowSync study revolves around:

* ``l0_file_count`` — the counter whose trip at the compaction trigger
  schedules a compaction (Figures 5 and 9);
* which compactions are due (L0→L1 on the trigger; Ln→Ln+1 on byte
  overflow, as in RocksDB's leveled compaction).  It builds and claims
  the candidate picks; a :class:`~repro.lsm.policies.CompactionPolicy`
  chooses among them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import LSMError
from .options import LSMOptions
from .sstable import SSTable

__all__ = ["CompactionPick", "LevelManager"]


class CompactionPick:
    """A chosen compaction: inputs and their destination level."""

    __slots__ = ("inputs", "source_level", "target_level", "reason")

    def __init__(
        self,
        inputs: List[SSTable],
        source_level: int,
        target_level: int,
        reason: str,
    ) -> None:
        self.inputs = inputs
        self.source_level = source_level
        self.target_level = target_level
        self.reason = reason

    @property
    def input_bytes(self) -> int:
        return sum(t.logical_bytes for t in self.inputs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompactionPick L{self.source_level}->L{self.target_level} "
            f"files={len(self.inputs)} bytes={self.input_bytes} ({self.reason})>"
        )


class LevelManager:
    """Tracks the SSTables of every level of one store."""

    def __init__(self, options: LSMOptions) -> None:
        self.options = options
        #: levels[0] is L0, newest table first.
        self._levels: List[List[SSTable]] = [[] for _ in range(options.num_levels)]
        #: Tables currently consumed by a running compaction.
        self._compacting: set = set()
        #: Structure version: bumped by every mutation of the level
        #: lists or the compacting set.  Lets the policy layer memoize
        #: a "nothing due" answer — the backend polls it after every
        #: flush, and most polls find no work.
        self._version = 0
        self._no_pick_memo: Tuple[int, int] = (-1, -1)
        #: Per-level byte totals (ints, so caching is exact); ``None``
        #: entries are recomputed on demand.  The overflow scan reads
        #: every level on every post-flush poll, and re-summing table
        #: lists each time dominates the no-op path.
        self._bytes_cache: List[Optional[int]] = [None] * options.num_levels
        self._limit_cache: List[float] = [
            options.max_bytes_for_level(level)
            for level in range(1, options.num_levels)
        ]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def level(self, index: int) -> List[SSTable]:
        return list(self._levels[index])

    @property
    def l0_file_count(self) -> int:
        """The ShadowSync counter: L0 SSTables accumulated so far."""
        return len(self._levels[0])

    def level_bytes(self, index: int) -> int:
        cached = self._bytes_cache[index]
        if cached is None:
            cached = sum(t.logical_bytes for t in self._levels[index])
            self._bytes_cache[index] = cached
        return cached

    def total_bytes(self) -> int:
        return sum(self.level_bytes(i) for i in range(self.num_levels))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add_l0(self, table: SSTable) -> None:
        """Install a freshly flushed SSTable at L0 (newest first)."""
        if table.level != 0:
            raise LSMError(f"table {table!r} is not an L0 table")
        self._levels[0].insert(0, table)
        self._version += 1
        self._bytes_cache[0] = None

    def apply_compaction(self, pick: CompactionPick, output: SSTable) -> None:
        """Replace *pick*'s inputs with *output* at the target level."""
        for table in pick.inputs:
            level = self._levels[table.level]
            if table not in level:
                raise LSMError(f"compaction input {table!r} is not installed")
            level.remove(table)
            self._compacting.discard(table.table_id)
        if output.level != pick.target_level:
            raise LSMError("compaction output installed at wrong level")
        target = self._levels[pick.target_level]
        target.append(output)
        # keep deeper levels ordered by key for non-overlap invariants
        if pick.target_level >= 1:
            target.sort(key=lambda t: (t.min_key or b""))
        self._version += 1
        self._bytes_cache = [None] * len(self._levels)

    # ------------------------------------------------------------------
    # compaction picking
    # ------------------------------------------------------------------

    def idle_l0(self) -> List[SSTable]:
        """L0 tables not claimed by a running compaction, newest first."""
        return [t for t in self._levels[0] if t.table_id not in self._compacting]

    def l0_compaction_in_flight(self) -> bool:
        """True while any L0 table is claimed by a running compaction.

        Claimed inputs stay installed until :meth:`apply_compaction`,
        so this is exactly "an L0→L1 merge is in flight" — the guard
        partial-compaction policies use to keep L1 runs disjoint.
        """
        return self.level_claimed(0)

    def level_claimed(self, level: int) -> bool:
        """True while any table at *level* is claimed by a running compaction."""
        return any(t.table_id in self._compacting for t in self._levels[level])

    # -- the no-pick memo (read and written by CompactionPolicy.pick)

    def no_pick_memoized(self, trigger: int) -> bool:
        """True when "nothing due at *trigger*" is known for this version."""
        return self._no_pick_memo == (self._version, trigger)

    def memoize_no_pick(self, trigger: int) -> None:
        self._no_pick_memo = (self._version, trigger)

    def claim(self, pick: CompactionPick) -> CompactionPick:
        """Reserve *pick*'s inputs against concurrent compactions."""
        for table in pick.inputs:
            self._compacting.add(table.table_id)
        # the claim set grew: new structure
        self._version += 1
        return pick

    def build_l0_pick(
        self, trigger: Optional[int] = None, max_files: Optional[int] = None
    ) -> Optional[CompactionPick]:
        """The L0→L1 merge due at *trigger*, unclaimed, or ``None``.

        ``max_files`` limits the merge to the *oldest* that many L0
        files (vLSM-style partial compaction) — the oldest suffix keeps
        newest-wins intact, because every remaining L0 file is newer
        than everything that moved to L1.

        Refuses while any compaction touching L0 or L1 is in flight:
        two concurrent picks landing at L1 can emit overlapping runs
        (the range closure skips claimed tables, so nothing else keeps
        their outputs disjoint), and an overlapped L1 breaks the
        first-match read path.
        """
        if self.level_claimed(0) or self.level_claimed(1):
            return None
        if trigger is None:
            trigger = self.options.effective_l0_trigger()
        idle = self.idle_l0()
        if len(idle) < trigger:
            return None
        if max_files is not None and max_files < len(idle):
            # idle is newest first: the oldest max_files live at the end
            inputs = list(idle[len(idle) - max_files:])
        else:
            inputs = list(idle)
        # The merged output spans the *combined* key range of all L0
        # inputs, so every L1 run overlapping that combined range must
        # join — and pulling one in can extend the range further, so
        # iterate to a fixpoint (L1 runs are disjoint, so this is fast).
        while True:
            keyed = [t for t in inputs if len(t)]
            if not keyed:
                break
            low = min(t.min_key for t in keyed)
            high = max(t.max_key for t in keyed)
            grew = False
            for table in self._levels[1]:
                if table in inputs:
                    continue
                if len(table) and table.min_key <= high and low <= table.max_key:
                    inputs.append(table)
                    grew = True
            if not grew:
                break
        return CompactionPick(inputs, 0, 1, reason="l0-trigger")

    def overflow_ratio(self, level: int) -> float:
        """``level_bytes / limit`` for a deeper level (0.0 when unlimited)."""
        limit = self._limit_cache[level - 1]
        return self.level_bytes(level) / limit if limit else 0.0

    def overflow_ratios(self) -> List[Tuple[int, float]]:
        """``(level, ratio)`` for every level that can source a compaction."""
        return [
            (level, self.overflow_ratio(level))
            for level in range(1, self.num_levels - 1)
        ]

    def peek_overflow_level(self) -> Optional[int]:
        """The most over-sized deeper level (ratio > 1), or ``None``."""
        worst_level = None
        worst_ratio = 1.0
        for level in range(1, self.num_levels - 1):
            ratio = self.overflow_ratio(level)
            if ratio > worst_ratio:
                worst_level = level
                worst_ratio = ratio
        return worst_level

    def build_level_pick(self, level: int) -> Optional[CompactionPick]:
        """An Ln→Ln+1 merge seeded at *level*'s oldest run, unclaimed,
        or ``None``.

        Refuses while any compaction touching *level* or ``level + 1``
        is in flight — same disjointness argument as
        :meth:`build_l0_pick`: a second pick landing at ``level + 1``
        while the first is unfinished can emit an overlapping run.
        """
        if self.level_claimed(level) or self.level_claimed(level + 1):
            return None
        candidates = list(self._levels[level])
        if not candidates:
            return None
        # Compact the oldest run plus its overlap in the next level,
        # extended to a fixpoint over the combined output range (the
        # same range-closure rule as the L0 pick).
        seed = min(candidates, key=lambda t: t.created_at)
        inputs = [seed]
        next_level = list(self._levels[level + 1])
        if not len(seed):
            # accounting-only seed: no key range — take the whole next
            # level so size bookkeeping stays conservative
            inputs.extend(next_level)
        else:
            while True:
                keyed = [t for t in inputs if len(t)]
                low = min(t.min_key for t in keyed)
                high = max(t.max_key for t in keyed)
                grew = False
                for table in next_level:
                    if table in inputs:
                        continue
                    if len(table) and table.min_key <= high and low <= table.max_key:
                        inputs.append(table)
                        grew = True
                if not grew:
                    break
        return CompactionPick(
            inputs, level, level + 1, reason="size-overflow"
        )

    def abandon_compaction(self, pick: CompactionPick) -> None:
        """Release *pick*'s inputs without applying it."""
        for table in pick.inputs:
            self._compacting.discard(table.table_id)
        self._version += 1

    # ------------------------------------------------------------------
    # checkpoint snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> List[List[SSTable]]:
        """A point-in-time copy of every level's table list.

        SSTables are immutable once installed, so sharing the table
        objects between the live levels and the snapshot is safe.
        """
        return [list(level) for level in self._levels]

    def restore(self, snapshot: List[List[SSTable]]) -> None:
        """Replace the level structure with *snapshot* (crash recovery).

        Any in-flight compaction claims are dropped — their jobs belong
        to the pre-crash store generation and will be discarded.
        """
        if len(snapshot) != self.num_levels:
            raise LSMError(
                f"snapshot has {len(snapshot)} levels, store has {self.num_levels}"
            )
        self._levels = [list(level) for level in snapshot]
        self._compacting = set()
        self._version += 1
        self._bytes_cache = [None] * len(self._levels)

    # ------------------------------------------------------------------
    # invariants (used heavily by property tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`LSMError` when the level structure is invalid."""
        for index in range(1, self.num_levels):
            level = self._levels[index]
            for table in level:
                if table.level != index:
                    raise LSMError(
                        f"table {table!r} installed at L{index} but claims "
                        f"L{table.level}"
                    )
            ranges: List[Tuple[bytes, bytes]] = [
                (t.min_key, t.max_key) for t in level if len(t)
            ]
            ranges.sort()
            for (lo_a, hi_a), (lo_b, _hi_b) in zip(ranges, ranges[1:]):
                if lo_b <= hi_a:
                    raise LSMError(
                        f"L{index} runs overlap: [{lo_a!r},{hi_a!r}] and "
                        f"[{lo_b!r},...]"
                    )

"""A functional LSM-tree key-value store (RocksDB's role).

The store is real — sorted memtables, immutable SSTables, leveled
compaction with newest-wins merges and tombstones — while its *timing*
is charged to the simulation by whoever drives the control-plane hooks
(:meth:`~repro.lsm.store.LSMStore.begin_flush`,
:meth:`~repro.lsm.store.LSMStore.pick_compaction`, …).  Every
compaction is chosen by the store's
:class:`~repro.lsm.policies.CompactionPolicy` (``reference`` by default).
"""

from .compaction import CompactionJob
from .flush import FlushJob
from .levels import CompactionPick, LevelManager
from .memtable import TOMBSTONE, MemTable
from .options import KiB, LSMOptions, MiB
from .policies import (
    DEFAULT_POLICY,
    CompactionPolicy,
    make_policy,
    policy_class,
    policy_names,
    register_policy,
)
from .sstable import SSTable, merge_tables
from .store import LSMStore, StoreStats

__all__ = [
    "CompactionJob",
    "FlushJob",
    "CompactionPick",
    "LevelManager",
    "TOMBSTONE",
    "MemTable",
    "KiB",
    "LSMOptions",
    "MiB",
    "DEFAULT_POLICY",
    "CompactionPolicy",
    "make_policy",
    "policy_class",
    "policy_names",
    "register_policy",
    "SSTable",
    "merge_tables",
    "LSMStore",
    "StoreStats",
]

"""Unit tests for SSTables and the k-way merge."""

import pytest

from repro.errors import LSMError
from repro.lsm import SSTable, TOMBSTONE, merge_tables


def make_table(pairs, level=0, logical=None):
    entries = sorted(pairs.items())
    if logical is None:
        logical = sum(len(k) + len(v) for k, v in entries if v is not TOMBSTONE)
    return SSTable(entries, logical_bytes=logical, level=level)


def test_get_with_binary_search():
    table = make_table({b"a": b"1", b"m": b"2", b"z": b"3"})
    assert table.get(b"m") == b"2"
    assert table.get(b"q") is None
    assert b"z" in table and b"x" not in table


def test_entries_must_be_strictly_sorted():
    with pytest.raises(LSMError):
        SSTable([(b"b", b"1"), (b"a", b"2")], logical_bytes=0)
    with pytest.raises(LSMError):
        SSTable([(b"a", b"1"), (b"a", b"2")], logical_bytes=0)


def test_min_max_keys_and_overlap():
    left = make_table({b"a": b"", b"f": b""})
    assert left.min_key == b"a" and left.max_key == b"f"


def test_empty_table_overlaps_nothing():
    empty = SSTable([], logical_bytes=100)
    assert empty.min_key is None


def test_scan_bounds():
    table = make_table({f"k{i}".encode(): b"v" for i in range(10)})
    assert [k for k, _ in table.scan(b"k2", b"k5")] == [b"k2", b"k3", b"k4"]


def test_merge_newest_wins():
    newer = make_table({b"k": b"new", b"only-new": b"x"})
    older = make_table({b"k": b"old", b"only-old": b"y"})
    merged = merge_tables([newer, older], drop_tombstones=False, level=1)
    assert merged.get(b"k") == b"new"
    assert merged.get(b"only-new") == b"x"
    assert merged.get(b"only-old") == b"y"
    assert merged.level == 1


def test_merge_keeps_tombstones_above_bottom_level():
    newer = make_table({b"k": TOMBSTONE})
    older = make_table({b"k": b"old"})
    merged = merge_tables([newer, older], drop_tombstones=False, level=1)
    assert merged.get(b"k") is TOMBSTONE


def test_merge_drops_tombstones_at_bottom_level():
    newer = make_table({b"k": TOMBSTONE, b"live": b"v"})
    older = make_table({b"k": b"old"})
    merged = merge_tables([newer, older], drop_tombstones=True, level=6)
    assert merged.get(b"k") is None
    assert merged.get(b"live") == b"v"


def test_merge_requires_input():
    with pytest.raises(LSMError):
        merge_tables([], drop_tombstones=False, level=1)


def test_merge_logical_bytes_shrink_with_dedup():
    a = make_table({b"k1": b"v", b"k2": b"v"}, logical=1000)
    b = make_table({b"k1": b"v", b"k2": b"v"}, logical=1000)
    merged = merge_tables([a, b], drop_tombstones=False, level=1)
    # 4 physical in, 2 out -> half the logical volume survives
    assert merged.logical_bytes == 1000


def test_merge_of_accounting_only_tables_keeps_logical_bytes():
    a = SSTable([], logical_bytes=700, level=0)
    b = SSTable([], logical_bytes=300, level=0)
    merged = merge_tables([a, b], drop_tombstones=False, level=1)
    assert merged.logical_bytes == 1000


def test_table_ids_unique():
    a = SSTable([], logical_bytes=0)
    b = SSTable([], logical_bytes=0)
    assert a.table_id != b.table_id

"""Unit tests for the LSMStore façade."""

import pytest

from repro.errors import LSMError, StoreClosedError
from repro.lsm import KiB, LSMOptions, LSMStore


def small_store(**overrides):
    defaults = dict(
        write_buffer_size=4 * KiB,
        l0_compaction_trigger=4,
        max_bytes_for_level_base=64 * KiB,
    )
    defaults.update(overrides)
    return LSMStore(LSMOptions(**defaults), "test")


def flush(store, now=0.0):
    job = store.begin_flush(now=now)
    if job is not None:
        store.finish_flush(job, now=now)
    return job


def compact_all(store, now=0.0):
    count = 0
    while True:
        job = store.pick_compaction(now=now)
        if job is None:
            return count
        store.finish_compaction(job, now=now)
        count += 1


def test_put_get_delete_through_memtable():
    store = small_store()
    store.put(b"k", b"v")
    assert store.get(b"k") == b"v"
    store.delete(b"k")
    assert store.get(b"k") is None


def test_reads_hit_sstables_after_flush():
    store = small_store()
    store.put(b"k", b"v")
    flush(store)
    assert store.memtable_bytes == 0
    assert store.l0_file_count == 1
    assert store.get(b"k") == b"v"


def test_newest_value_wins_across_memtable_and_sstables():
    store = small_store()
    store.put(b"k", b"old")
    flush(store)
    store.put(b"k", b"new")
    assert store.get(b"k") == b"new"
    flush(store)
    assert store.get(b"k") == b"new"


def test_delete_shadows_older_sstable_value():
    store = small_store()
    store.put(b"k", b"v")
    flush(store)
    store.delete(b"k")
    flush(store)
    assert store.get(b"k") is None
    compact_all(store)
    assert store.get(b"k") is None


def test_flush_of_empty_memtable_returns_none():
    store = small_store()
    assert store.begin_flush() is None


def test_compaction_triggered_at_l0_threshold():
    store = small_store(l0_compaction_trigger=3)
    for i in range(3):
        store.put(f"k{i}".encode(), b"v")
        flush(store)
    assert compact_all(store) >= 1
    assert store.l0_file_count == 0
    store.check_invariants()


def test_memtable_full_flag():
    store = small_store(write_buffer_size=100)
    assert not store.memtable_full
    store.put(b"key", b"x" * 200)
    assert store.memtable_full


def test_scan_merges_all_sources_newest_wins():
    store = small_store(l0_compaction_trigger=2)
    expected = {}
    for round_ in range(5):
        for i in range(8):
            key = f"k{i}".encode()
            value = f"r{round_}v{i}".encode()
            store.put(key, value)
            expected[key] = value
        flush(store, now=float(round_))
        compact_all(store, now=float(round_))
    store.put(b"k0", b"latest")
    expected[b"k0"] = b"latest"
    assert dict(store.scan()) == expected


def test_scan_excludes_tombstones():
    store = small_store()
    store.put(b"a", b"1")
    store.put(b"b", b"2")
    store.delete(b"a")
    assert dict(store.scan()) == {b"b": b"2"}


def test_account_feeds_flush_volume():
    store = small_store()
    store.account(100, 50_000)
    job = store.begin_flush()
    assert job is not None
    assert job.input_bytes >= 50_000
    table = store.finish_flush(job)
    assert table.logical_bytes >= 50_000


def test_live_data_cap_clamps_compaction_output():
    store = small_store(l0_compaction_trigger=2, live_data_cap_bytes=1000)
    store.account(10, 5000)
    flush(store)
    store.account(10, 5000)
    flush(store)
    compact_all(store)
    assert store.levels.level_bytes(1) <= 1000


def test_closed_store_rejects_operations():
    store = small_store()
    store.put(b"k", b"v")
    store.close()
    assert store.closed
    for operation in (
        lambda: store.put(b"a", b"b"),
        lambda: store.get(b"k"),
        lambda: store.delete(b"k"),
        lambda: store.begin_flush(),
        lambda: store.pick_compaction(),
    ):
        with pytest.raises(StoreClosedError):
            operation()


def test_finish_flush_from_other_store_rejected():
    store_a = small_store()
    store_b = small_store()
    store_a.put(b"k", b"v")
    job = store_a.begin_flush()
    with pytest.raises(LSMError):
        store_b.finish_flush(job)


def test_stats_track_operations():
    store = small_store(l0_compaction_trigger=2)
    store.put(b"a", b"1")
    store.get(b"a")
    store.delete(b"a")
    flush(store)
    store.put(b"b", b"2")
    flush(store)
    compact_all(store)
    stats = store.stats.as_dict()
    assert stats["puts"] == 2
    assert stats["gets"] == 1
    assert stats["deletes"] == 1
    assert stats["flush_count"] == 2
    assert stats["compaction_count"] >= 1
    assert stats["compaction_input_bytes"] > 0


def test_memtable_full_flush_reason_counted():
    store = small_store()
    store.put(b"k", b"v")
    job = store.begin_flush(reason="memtable-full")
    store.finish_flush(job)
    assert store.stats.memtable_full_flushes == 1


def test_total_bytes_spans_memtable_and_levels():
    store = small_store()
    store.put(b"a", b"x" * 100)
    before = store.total_bytes()
    assert before > 100
    flush(store)
    assert store.total_bytes() == pytest.approx(before, rel=0.01)


def test_cancel_compaction_releases_inputs():
    store = small_store(l0_compaction_trigger=2)
    for i in range(2):
        store.put(f"k{i}".encode(), b"v")
        flush(store)
    job = store.pick_compaction()
    assert job is not None
    store.cancel_compaction(job)
    assert store.pick_compaction() is not None


def test_stale_compaction_releases_no_claim_of_a_live_job():
    """A restore keeps the same SSTable objects in L0.  A job picked
    after the restore claims them again; the pre-restore job finishing
    must not release those claims, or a third pick takes the same
    inputs and the live job's install fails."""
    store = small_store(l0_compaction_trigger=2)
    for i in range(2):
        store.put(f"k{i}".encode(), b"v")
        flush(store)
    snapshot = store.snapshot_state()
    stale = store.pick_compaction()
    store.restore_from_checkpoint(snapshot)
    live = store.pick_compaction()
    assert stale is not None and live is not None
    assert [t.table_id for t in live.pick.inputs] == [
        t.table_id for t in stale.pick.inputs
    ]
    store.finish_compaction(stale)
    assert store.pick_compaction() is None  # the live claims still hold
    store.finish_compaction(live)
    assert store.l0_file_count == 0
    store.check_invariants()

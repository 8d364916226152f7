"""Unit tests for the level manager and compaction picking (through the
``reference`` policy, the picker every store uses by default)."""

import pytest

from repro.errors import LSMError
from repro.lsm import LSMOptions, LevelManager, MiB, SSTable, make_policy


def options(trigger=4, base=16 * MiB):
    return LSMOptions(l0_compaction_trigger=trigger, max_bytes_for_level_base=base)


def pick_compaction(levels):
    return make_policy("reference", options=levels.options).pick(levels)


def l0_table(pairs=None, logical=1000):
    entries = sorted((pairs or {}).items())
    return SSTable(entries, logical_bytes=logical, level=0)


def test_add_l0_newest_first():
    levels = LevelManager(options())
    first = l0_table()
    second = l0_table()
    levels.add_l0(first)
    levels.add_l0(second)
    assert levels.level(0) == [second, first]
    assert levels.l0_file_count == 2


def test_add_l0_rejects_wrong_level():
    levels = LevelManager(options())
    wrong = SSTable([], logical_bytes=0, level=1)
    with pytest.raises(LSMError):
        levels.add_l0(wrong)


def test_no_compaction_below_trigger():
    levels = LevelManager(options(trigger=4))
    for _ in range(3):
        levels.add_l0(l0_table())
    assert pick_compaction(levels) is None


def test_l0_trigger_picks_all_idle_files():
    levels = LevelManager(options(trigger=4))
    for _ in range(5):
        levels.add_l0(l0_table())
    pick = pick_compaction(levels)
    assert pick is not None
    assert pick.source_level == 0 and pick.target_level == 1
    assert len(pick.inputs) == 5
    assert pick.reason == "l0-trigger"


def test_pick_reserves_inputs_until_applied():
    levels = LevelManager(options(trigger=2))
    for _ in range(2):
        levels.add_l0(l0_table())
    first = pick_compaction(levels)
    assert first is not None
    assert pick_compaction(levels) is None  # inputs reserved
    levels.abandon_compaction(first)
    assert pick_compaction(levels) is not None  # released again


def test_l0_pick_includes_overlapping_l1_runs():
    levels = LevelManager(options(trigger=2))
    resident = SSTable([(b"a", b"1"), (b"m", b"2")], logical_bytes=100, level=1)
    levels._levels[1].append(resident)
    levels.add_l0(l0_table({b"b": b"x"}))
    levels.add_l0(l0_table({b"c": b"y"}))
    pick = pick_compaction(levels)
    assert resident in pick.inputs


def test_apply_compaction_replaces_inputs():
    levels = LevelManager(options(trigger=2))
    for _ in range(2):
        levels.add_l0(l0_table(logical=500))
    pick = pick_compaction(levels)
    output = SSTable([], logical_bytes=1000, level=1)
    levels.apply_compaction(pick, output)
    assert levels.l0_file_count == 0
    assert levels.level(1) == [output]
    assert levels.level_bytes(1) == 1000


def test_apply_compaction_validates_target_level():
    levels = LevelManager(options(trigger=2))
    for _ in range(2):
        levels.add_l0(l0_table())
    pick = pick_compaction(levels)
    wrong = SSTable([], logical_bytes=0, level=3)
    with pytest.raises(LSMError):
        levels.apply_compaction(pick, wrong)


def test_overflow_pick_on_oversized_level():
    opts = options(trigger=4, base=1000)  # L1 limit = 1000 bytes
    levels = LevelManager(opts)
    big = SSTable([(b"a", b"v")], logical_bytes=5000, level=1)
    levels._levels[1].append(big)
    pick = pick_compaction(levels)
    assert pick is not None
    assert pick.reason == "size-overflow"
    assert pick.source_level == 1 and pick.target_level == 2
    assert big in pick.inputs


def test_overflow_merges_overlapping_next_level_run():
    opts = options(base=1000)
    levels = LevelManager(opts)
    seed = SSTable([(b"c", b"v")], logical_bytes=5000, level=1)
    below = SSTable([(b"a", b"v"), (b"z", b"v")], logical_bytes=100, level=2)
    levels._levels[1].append(seed)
    levels._levels[2].append(below)
    pick = pick_compaction(levels)
    assert set(pick.inputs) == {seed, below}


def test_invariants_pass_on_valid_structure():
    levels = LevelManager(options())
    levels._levels[1] = [
        SSTable([(b"a", b"v"), (b"c", b"v")], logical_bytes=0, level=1),
        SSTable([(b"d", b"v"), (b"f", b"v")], logical_bytes=0, level=1),
    ]
    levels.check_invariants()


def test_invariants_catch_overlapping_l1_runs():
    levels = LevelManager(options())
    levels._levels[1] = [
        SSTable([(b"a", b"v"), (b"m", b"v")], logical_bytes=0, level=1),
        SSTable([(b"c", b"v"), (b"z", b"v")], logical_bytes=0, level=1),
    ]
    with pytest.raises(LSMError):
        levels.check_invariants()


def test_invariants_catch_mislabelled_level():
    levels = LevelManager(options())
    levels._levels[2] = [SSTable([], logical_bytes=0, level=1)]
    with pytest.raises(LSMError):
        levels.check_invariants()


def test_total_bytes_sums_levels():
    levels = LevelManager(options())
    levels.add_l0(l0_table(logical=100))
    levels._levels[1].append(SSTable([], logical_bytes=400, level=1))
    assert levels.total_bytes() == 500


def test_max_bytes_for_level_progression():
    opts = LSMOptions(max_bytes_for_level_base=100, level_size_multiplier=10)
    assert opts.max_bytes_for_level(1) == 100
    assert opts.max_bytes_for_level(3) == 10000
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        opts.max_bytes_for_level(0)

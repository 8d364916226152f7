"""Unit tests for storage profiles and HDFS backup."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import Simulator
from repro.storage import HDD, NVME_SSD, TMPFS, HdfsBackup, StorageProfile, profile_by_name


def test_builtin_profiles_ordering():
    assert TMPFS.write_bandwidth_mb_s > NVME_SSD.write_bandwidth_mb_s > HDD.write_bandwidth_mb_s
    assert TMPFS.io_cpu_seconds_per_mb == 0.0
    assert NVME_SSD.io_cpu_seconds_per_mb > 0.0


def test_profile_lookup():
    assert profile_by_name("tmpfs") is TMPFS
    assert profile_by_name("nvme") is NVME_SSD
    with pytest.raises(ConfigurationError):
        profile_by_name("floppy")


def test_work_conversion():
    assert TMPFS.write_work_mb(2_000_000) == pytest.approx(2.0)
    assert TMPFS.read_work_mb(500_000) == pytest.approx(0.5)


def test_profile_validation():
    with pytest.raises(ConfigurationError):
        StorageProfile("bad", write_bandwidth_mb_s=0.0, read_bandwidth_mb_s=1.0)
    with pytest.raises(ConfigurationError):
        StorageProfile("bad", write_bandwidth_mb_s=1.0, read_bandwidth_mb_s=1.0,
                       per_op_latency_s=-1.0)


def test_hdfs_backup_takes_transfer_time():
    sim = Simulator()
    hdfs = HdfsBackup(sim, uplink_mb_s=100.0, replication=3)
    hdfs.backup(1, 50_000_000)  # 50 MB * 3 replicas / 100 MB/s = 1.5 s
    assert hdfs.pending == 1
    sim.run()
    assert hdfs.pending == 0
    checkpoint_id, nbytes, submit, finish = hdfs.completed[0]
    assert checkpoint_id == 1
    assert finish - submit == pytest.approx(1.5)


def test_hdfs_concurrent_backups_share_uplink():
    sim = Simulator()
    hdfs = HdfsBackup(sim, uplink_mb_s=100.0, replication=1)
    hdfs.backup(1, 100_000_000)
    hdfs.backup(2, 100_000_000)
    sim.run()
    # 2 x 1 MB-equivalent jobs of 1s each sharing -> both finish at 2s
    finishes = sorted(done for _id, _b, _s, done in hdfs.completed)
    assert finishes[-1] == pytest.approx(2.0)


def test_hdfs_zero_bytes_completes_immediately():
    sim = Simulator()
    hdfs = HdfsBackup(sim)
    hdfs.backup(9, 0)
    assert hdfs.completed[0][0] == 9


def test_degraded_composes_without_stacking_the_name():
    once = NVME_SSD.degraded(0.5)
    assert once.name == "nvme-degraded"
    assert once.write_bandwidth_mb_s == pytest.approx(
        NVME_SSD.write_bandwidth_mb_s * 0.5
    )
    twice = once.degraded(0.5)
    # bandwidth factors multiply; the suffix appears exactly once
    assert twice.name == "nvme-degraded"
    assert twice.write_bandwidth_mb_s == pytest.approx(
        NVME_SSD.write_bandwidth_mb_s * 0.25
    )
    assert twice.read_bandwidth_mb_s == pytest.approx(
        NVME_SSD.read_bandwidth_mb_s * 0.25
    )
    with pytest.raises(ConfigurationError):
        NVME_SSD.degraded(0.0)
    with pytest.raises(ConfigurationError):
        NVME_SSD.degraded(1.5)

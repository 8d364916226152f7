"""Membership lifecycle on a small two-node job: install, scheduled
join/leave, rebalancing, ownership accounting and determinism."""

import pytest

from repro.cluster import ClusterSpec, install_cluster
from repro.config import CheckpointConfig, ClusterConfig
from repro.errors import SimulationError
from repro.faults import FaultPlan, FaultSpec, inject_faults
from repro.serialize import canonical_json
from repro.stream.engine import StreamJob
from repro.stream.sources import ConstantSource
from repro.stream.stage import StageSpec
from repro.trace import Tracer

DURATION = 40.0


def small_job(seed=3, tracer=None, nodes=2):
    # parallelism 4 over 2 nodes: each node hosts two instances per
    # stage, so a join has surplus to migrate onto the new node
    return StreamJob(
        stages=[
            StageSpec(name="a", parallelism=4, state_entry_bytes=600.0,
                      distinct_keys=3000, selectivity=0.5),
            StageSpec(name="b", parallelism=4, state_entry_bytes=400.0,
                      distinct_keys=1500, selectivity=0.0),
        ],
        source=ConstantSource(1500.0),
        cluster=ClusterConfig(num_nodes=nodes, cores_per_node=4),
        checkpoint=CheckpointConfig(interval_s=4.0, first_at_s=4.0),
        seed=seed,
        tracer=tracer,
    )


def join(at_s, count=1):
    return FaultSpec(kind="node_join", at_s=at_s, factor=float(count))


def leave(at_s, count=1):
    return FaultSpec(kind="node_leave", at_s=at_s, factor=float(count))


def elastic(job, *membership, **kwargs):
    """Install the cluster layer, then schedule *membership* as a plan."""
    manager = install_cluster(job, ClusterSpec(**kwargs))
    inject_faults(job, FaultPlan(name="membership", faults=membership))
    return manager


def hosted_partitions(job):
    hosts = {}
    for stage in job.stages:
        for node_name, instances in stage.instances_by_node.items():
            for instance in instances:
                hosts[instance.name] = node_name
    return hosts


def test_install_sets_manager_and_rejects_double_install():
    job = small_job()
    manager = install_cluster(job, ClusterSpec())
    assert job.subsystems["cluster"] is manager
    assert sorted(manager.live) == ["node0", "node1"]
    with pytest.raises(SimulationError):
        install_cluster(job, ClusterSpec())


def test_scheduled_join_adds_a_node_and_rebalances():
    job = small_job()
    manager = elastic(job, join(10.0))
    result = job.run(DURATION)
    assert sorted(manager.live) == ["node0", "node1", "node2"]
    hosts = hosted_partitions(job)
    # the new node took at least one partition of each stage's surplus
    assert "node2" in set(hosts.values())
    # every migration completed and ownership matches physical hosting
    assert all(m["status"] == "completed" for m in manager.migrations)
    assert manager.owner == hosts
    assert manager.unowned_partitions() == []
    assert result.invariant_violations == []
    labels = [label for label, _, _ in manager.windows]
    assert labels == ["rebalance:scale-out:+1"]


def test_scheduled_leave_drains_and_retires():
    job = small_job()
    manager = elastic(job, leave(10.0))
    result = job.run(DURATION)
    assert sorted(manager.live) == ["node0"]
    assert manager.retired == ["node1"]
    hosts = hosted_partitions(job)
    assert set(hosts.values()) == {"node0"}
    assert manager.unowned_partitions() == []
    # drains ship a live snapshot: state arrives intact at the dest
    for migration in manager.migrations:
        assert migration["kind"] == "drain"
        assert migration["status"] == "completed"
        assert migration["digest_restored"] == migration["digest_source"]
    assert result.invariant_violations == []


def test_leave_keeps_at_least_one_node():
    job = small_job()
    manager = elastic(job, leave(10.0, count=5))
    job.run(30.0)
    assert sorted(manager.live) == ["node0"]


def test_migration_records_ride_the_summary():
    job = small_job()
    elastic(job, join(10.0))
    result = job.run(DURATION)
    summary = result.summary()
    assert summary["cluster"]["nodes"]["live"] == ["node0", "node1", "node2"]
    assert summary["cluster"]["migrations"]
    assert summary["cluster"]["unowned_partitions"] == []
    # a static run keeps the legacy summary shape (no cluster key)
    static = small_job().run(20.0)
    assert "cluster" not in static.summary()


def test_cluster_events_are_traced():
    tracer = Tracer()
    job = small_job(tracer=tracer)
    elastic(job, join(10.0))
    job.run(30.0)
    names = {e.name for e in tracer if e.cat == "cluster"}
    assert {"node-join", "rebalance-plan", "partition-migrate",
            "ownership-flip", "rebalance-complete"} <= names


def test_elastic_run_is_deterministic():
    """Same seed + same membership schedule => byte-identical summary."""
    def run_once():
        job = small_job(seed=7)
        elastic(job, join(8.0, count=2), leave(24.0))
        return canonical_json(job.run(DURATION).summary())

    assert run_once() == run_once()


def test_ownership_log_is_contiguous():
    job = small_job()
    manager = elastic(job, join(8.0), leave(20.0))
    job.run(DURATION)
    last_owner = {}
    for flip in manager.ownership_log:
        partition = flip["partition"]
        if partition in last_owner:
            assert flip["from"] == last_owner[partition]
        last_owner[partition] = flip["to"]

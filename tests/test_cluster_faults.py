"""Cluster-layer fault kinds: node crash (including mid-migration),
node flap, network partition, and the plan/preset/shrink plumbing."""

import pytest

from repro.cluster import ClusterSpec, MembershipEvent, install_cluster
from repro.config import CheckpointConfig, ClusterConfig
from repro.errors import ConfigurationError
from repro.faults import (
    ALL_FAULT_KINDS,
    CLUSTER_FAULT_KINDS,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    inject_faults,
    preset_plan,
    shrink_failing,
)

from .test_cluster_membership import cluster_spec, hosted_partitions, small_job

DURATION = 50.0


def plan_of(*faults) -> FaultPlan:
    return FaultPlan(name="test", faults=tuple(faults))


def run_clustered(plan, spec=None, duration=DURATION, seed=3):
    job = small_job(seed=seed)
    manager = install_cluster(job, spec if spec is not None else cluster_spec())
    if plan is not None:
        inject_faults(job, plan)
    result = job.run(duration)
    return job, manager, result


# ----------------------------------------------------------------------
# node_crash
# ----------------------------------------------------------------------


def test_node_crash_fails_over_and_rejoins():
    plan = plan_of(FaultSpec(kind="node_crash", at_s=14.0, duration_s=3.0,
                             node=1))
    job, manager, result = run_clustered(plan)
    kinds = {m["kind"] for m in manager.migrations}
    assert "failover" in kinds
    # the detector suspected the silent node, then revived it
    events = [t["event"] for t in manager.detector.transitions]
    assert events.count("suspect") == 1 and events.count("revive") == 1
    # after the rejoin rebalance the node hosts partitions again
    assert "node1" in set(hosted_partitions(job).values())
    assert manager.unowned_partitions() == []
    assert result.invariant_violations == []


def test_node_crash_without_cluster_degrades_to_worker_crash():
    plan = plan_of(FaultSpec(kind="node_crash", at_s=14.0, duration_s=2.0,
                             node=0))
    job = small_job()
    inject_faults(job, plan)
    result = job.run(30.0)
    (event,) = job.subsystems["faults"].events
    assert event["restores"], "classic in-place checkpoint restore expected"
    assert result.invariant_violations == []


def test_crash_during_migration_never_splits_ownership():
    """Satellite: crash the source while its partitions are in flight.

    The scale-out transfer must abort, the crashed node's state must
    fail over from a completed checkpoint, ownership must stay single
    at every event time, and no records may leak.
    """
    spec = ClusterSpec(
        # ~1 MB snapshots at 50 kB/s: transfers run for tens of seconds,
        # so the crash at t=21 lands mid-flight in the t=20 rebalance
        migration_bandwidth_mb_s=0.05,
        transfer_deadline_s=60.0,
        events=(MembershipEvent(action="join", at_s=20.0, count=1),),
    )
    plan = plan_of(FaultSpec(kind="node_crash", at_s=21.0, duration_s=3.0,
                             node=1))
    job, manager, result = run_clustered(plan, spec=spec, duration=70.0)

    aborted = [m for m in manager.migrations if m["status"] == "aborted"]
    assert aborted, "the in-flight transfer should have been cut"
    assert {m["reason"] for m in aborted} == {"source-crashed"}
    assert all(m["source"] == "node1" for m in aborted)

    # every partition the abort stranded was re-shipped by the failover,
    # from a snapshot of a *completed* checkpoint, with its state intact
    failovers = {m["partition"]: m for m in manager.migrations
                 if m["kind"] == "failover"}
    completed_at = {r.triggered_at for r in result.coordinator.records
                    if r.state == "completed"}
    for migration in aborted:
        failover = failovers[migration["partition"]]
        assert failover["status"] == "completed"
        assert failover["snapshot_time"] in completed_at
        assert failover["digest_restored"] == failover["digest_source"]
    # the crash window itself recovered from a pre-crash checkpoint
    assert min(f["snapshot_time"] for f in failovers.values()) <= 21.0

    # single owner at every sampled instant + contiguous flip history
    assert result.invariant_violations == []
    last_owner = {}
    for flip in manager.ownership_log:
        if flip["partition"] in last_owner:
            assert flip["from"] == last_owner[flip["partition"]]
        last_owner[flip["partition"]] = flip["to"]
    assert manager.unowned_partitions() == []
    assert manager.in_flight_migrations() == 0

    # counts match the unfaulted reference: same source volume arrives,
    # per-flow accounting balances (exactly-once up to explicit replay),
    # and the faulted run served no less than the reference
    ref_job, _, ref_result = run_clustered(None, spec=spec, duration=70.0)
    arrived = lambda job_: sum(
        f.total_arrived for f in job_.stages[0].flows.values()
    )
    assert arrived(job) == pytest.approx(arrived(ref_job), rel=1e-6)
    for stage in job.stages:
        for flow in stage.flows.values():
            volume = flow.total_arrived + flow.replayed_messages
            assert abs(flow.accounting_balance()) <= max(1e-3, 1e-7 * volume)
    served = lambda job_: sum(
        f.total_served for f in job_.stages[-1].flows.values()
    )
    replayed = sum(f.replayed_messages for s in job.stages
                   for f in s.flows.values())
    assert served(job) >= served(ref_job) - 1.0
    assert served(job) <= served(ref_job) + replayed + 1.0


# ----------------------------------------------------------------------
# node_flap / network_partition
# ----------------------------------------------------------------------


def test_node_flap_cycles_cleanly():
    plan = plan_of(FaultSpec(kind="node_flap", at_s=14.0, duration_s=9.0,
                             node=1, factor=3.0))
    job, manager, result = run_clustered(plan)
    (event,) = job.subsystems["faults"].events
    assert event["cycles"] == 3
    assert len(event["flaps"]) == 3
    assert all(sub["end"] is not None for sub in event["flaps"])
    assert manager.unowned_partitions() == []
    assert manager.fenced == {}
    assert result.invariant_violations == []


def test_network_partition_suspects_then_heals():
    plan = plan_of(FaultSpec(kind="network_partition", at_s=14.0,
                             duration_s=5.0, node=1))
    job, manager, result = run_clustered(plan)
    events = [t["event"] for t in manager.detector.transitions]
    assert "suspect" in events and "revive" in events
    assert manager.partitioned == set()
    assert manager.unowned_partitions() == []
    assert result.invariant_violations == []


def test_network_partition_without_cluster_is_a_recorded_noop():
    plan = plan_of(FaultSpec(kind="network_partition", at_s=10.0,
                             duration_s=3.0, node=0))
    job = small_job()
    inject_faults(job, plan)
    result = job.run(20.0)
    (event,) = job.subsystems["faults"].events
    assert event["ignored"] == "no cluster layer installed"
    assert result.invariant_violations == []


# ----------------------------------------------------------------------
# plan plumbing: presets, random, shrink
# ----------------------------------------------------------------------


def test_cluster_kinds_extend_but_do_not_reorder_fault_kinds():
    # FAULT_KINDS feeds seeded random plans: reordering it would silently
    # change every recorded soak schedule
    assert FAULT_KINDS == ("worker_crash", "flush_stall", "compaction_stall",
                           "slow_disk", "checkpoint_timeout",
                           "kafka_backpressure")
    assert CLUSTER_FAULT_KINDS == ("node_crash", "node_flap",
                                   "network_partition")
    assert ALL_FAULT_KINDS == FAULT_KINDS + CLUSTER_FAULT_KINDS


@pytest.mark.parametrize("name,kind", [
    ("node-crash", "node_crash"),
    ("node-flap", "node_flap"),
    ("net-partition", "network_partition"),
])
def test_cluster_presets(name, kind):
    plan = preset_plan(name)
    assert [f.kind for f in plan.faults] == [kind]


def test_fault_spec_rejects_unknown_kind_but_takes_cluster_kinds():
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="meteor_strike")
    for kind in CLUSTER_FAULT_KINDS:
        assert FaultSpec(kind=kind, at_s=1.0, duration_s=1.0).kind == kind


def test_random_plans_can_draw_cluster_kinds():
    drawn = set()
    for seed in range(40):
        plan = FaultPlan.random(seed=seed, duration_s=60.0,
                                kinds=ALL_FAULT_KINDS)
        drawn.update(f.kind for f in plan.faults)
    assert drawn <= set(ALL_FAULT_KINDS)
    assert drawn & set(CLUSTER_FAULT_KINDS)
    # node_flap factors are whole cycle counts
    for seed in range(40):
        for fault in FaultPlan.random(seed=seed, kinds=("node_flap",)).faults:
            assert fault.factor == int(fault.factor) >= 1


def test_shrink_handles_cluster_kinds():
    plan = plan_of(
        FaultSpec(kind="node_crash", at_s=10.0, duration_s=4.0, node=0),
        FaultSpec(kind="network_partition", at_s=20.0, duration_s=4.0, node=1),
    )
    shrunk = shrink_failing(
        plan,
        lambda candidate: any(f.kind == "node_crash" for f in candidate.faults),
    )
    assert len(shrunk.faults) == 1
    assert shrunk.faults[0].kind == "node_crash"

"""Cluster-layer fault kinds: node crash (including mid-migration),
node flap, network partition, and the plan/preset/shrink plumbing."""

import pytest

from repro.cluster import ClusterSpec, install_cluster
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
from repro.trace import Tracer

from .test_cluster_membership import hosted_partitions, join, leave, small_job

DURATION = 50.0


def plan_of(*faults) -> FaultPlan:
    return FaultPlan(name="test", faults=tuple(faults))


def run_clustered(plan, spec=None, duration=DURATION, seed=3):
    job = small_job(seed=seed)
    manager = install_cluster(job, spec if spec is not None else ClusterSpec())
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


def test_unsuspected_node_crash_recovers_like_a_worker_crash():
    """One recovery path: a crash too short for the detector to suspect
    is recovered in place by the engine, so the cluster's node_crash
    restores and replays exactly what a plain worker_crash does."""

    def crash(kind, clustered):
        job = small_job()
        manager = install_cluster(job, ClusterSpec()) if clustered else None
        inject_faults(job, plan_of(FaultSpec(kind=kind, at_s=14.0,
                                             duration_s=0.5, node=0)))
        job.run(30.0)
        if manager is not None:
            assert manager.detector.transitions == []
            assert manager.migrations == []
        replayed = {
            (stage.name, node): flow.replayed_messages
            for stage in job.stages
            for node, flow in stage.flows.items()
        }
        return job.coordinator.restore_events, replayed

    plain_restores, plain_replayed = crash("worker_crash", clustered=False)
    restores, replayed = crash("node_crash", clustered=True)
    assert plain_restores and sum(plain_replayed.values()) > 0
    assert restores == plain_restores
    assert replayed == plain_replayed


def test_failover_restores_through_the_checkpoint_seam():
    """A crash long enough to be suspected fails every hosted partition
    over; each restore of its shipped snapshot is a restore event and a
    ``checkpoint-restore`` instant, like an in-place recovery."""
    job = small_job(tracer=Tracer())
    manager = install_cluster(job, ClusterSpec())
    inject_faults(job, plan_of(FaultSpec(kind="node_crash", at_s=14.0,
                                         duration_s=2.0, node=0)))
    job.run(30.0)
    failovers = [m for m in manager.migrations if m["kind"] == "failover"]
    assert len(failovers) == 4
    restores = job.coordinator.restore_events
    assert len(restores) == 4
    assert sorted(r["instance"] for r in restores) == sorted(
        m["partition"] for m in failovers
    )
    assert all(r["snapshot_time"] == 12.0 and r["checkpoint_id"] is not None
               for r in restores)
    for m in failovers:
        assert m["digest_restored"] == m["digest_source"]
    instants = job.sim.tracer.select(cat="checkpoint", name="checkpoint-restore")
    assert len(instants) == 4


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
    )
    plan = plan_of(join(20.0), FaultSpec(kind="node_crash", at_s=21.0,
                                         duration_s=3.0, node=1))
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


def landed_after_one_transfer(record, spec):
    """The record ended exactly one paced transfer after its transfer
    began (the deadline is stamped when the transfer begins)."""
    began = record["deadline"] - spec.transfer_deadline_s
    paced = max(record["bytes"] / (spec.migration_bandwidth_mb_s * 1e6), 1e-3)
    return record["end"] == pytest.approx(began + paced)


def test_failover_to_a_crashed_destination_is_redispatched_once():
    """node1 dies and fails over onto node2, which dies before the
    transfers land: each fails after one transfer and is re-dispatched
    once, to node0, the only healthy node left."""
    spec = ClusterSpec(migration_bandwidth_mb_s=0.1, transfer_deadline_s=60.0)
    plan = plan_of(
        FaultSpec(kind="node_crash", at_s=14.0, duration_s=50.0, node=1),
        FaultSpec(kind="node_crash", at_s=16.0, duration_s=50.0, node=2),
    )
    job = small_job(nodes=3)
    manager = install_cluster(job, spec)
    inject_faults(job, plan)
    result = job.run(60.0)

    failed = [m for m in manager.migrations if m["status"] == "failed"]
    assert failed and {m["kind"] for m in failed} == {"failover"}
    for record in failed:
        assert record["reason"] == "endpoint-unhealthy"
        assert (record["source"], record["dest"]) == ("node1", "node2")
        assert landed_after_one_transfer(record, spec)
        (again,) = [m for m in manager.migrations
                    if m["partition"] == record["partition"]
                    and m["id"] > record["id"]]
        assert again["kind"] == "failover" and again["redispatched"]
        assert again["plan_id"] == record["plan_id"]
        assert again["start"] == record["end"]
        assert again["dest"] == "node0"
        assert again["status"] == "completed"
        assert again["digest_restored"] == again["digest_source"]
        assert manager.owner[record["partition"]] == "node0"
    assert manager.unowned_partitions() == []
    assert manager.in_flight_migrations() == 0
    assert not [v for v in result.invariant_violations
                if v["invariant"] in ("single-owner-per-partition",
                                      "migration-no-lost-state")]


def test_planned_move_to_a_crashed_destination_stays_with_its_source():
    """A drain whose destination dies mid-transfer fails after one
    transfer and is not re-dispatched: the partition stays on the
    leaving node, which therefore does not retire."""
    spec = ClusterSpec(
        migration_bandwidth_mb_s=0.05,
        transfer_deadline_s=60.0,
    )
    plan = plan_of(leave(20.0), FaultSpec(kind="node_crash", at_s=21.0,
                                          duration_s=50.0, node=1))
    job = small_job(nodes=3)
    manager = install_cluster(job, spec)
    inject_faults(job, plan)
    result = job.run(60.0)

    drains = [m for m in manager.migrations if m["kind"] == "drain"]
    assert drains
    for record in drains:
        assert (record["source"], record["dest"]) == ("node2", "node1")
        assert record["status"] == "failed"
        assert record["reason"] == "endpoint-unhealthy"
        assert landed_after_one_transfer(record, spec)
        assert not record.get("redispatched")
        assert manager.owner[record["partition"]] == "node2"
        assert hosted_partitions(job)[record["partition"]] == "node2"
    moved = {flip["partition"] for flip in manager.ownership_log}
    assert not moved & {record["partition"] for record in drains}
    assert "node2" in manager.retiring and manager.retired == []
    assert not [v for v in result.invariant_violations
                if v["invariant"] in ("single-owner-per-partition",
                                      "migration-no-lost-state")]


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


# ----------------------------------------------------------------------
# node_join / node_leave: membership changes as plan entries
# ----------------------------------------------------------------------


def test_membership_entries_are_instants_not_fault_windows():
    tracer = Tracer()
    job = small_job(tracer=tracer)
    install_cluster(job, ClusterSpec())
    injector = inject_faults(job, plan_of(join(10.0), leave(25.0)))
    result = job.run(40.0)
    manager = job.subsystems["cluster"]
    assert [(e["event"], e["time"]) for e in manager.membership_log][:2] == [
        ("join", 10.0), ("leave-begin", 25.0),
    ]
    # the manager's log, instants and rebalance windows are the record
    assert injector.events == [] and injector.windows == []
    assert result.fault_events == []
    assert injector.report()["events"] == []
    assert not [e for e in tracer if e.cat == "fault"]
    assert {"node-join", "node-drain"} <= {e.name for e in tracer
                                           if e.cat == "cluster"}
    assert [label for label, _, _ in manager.windows][0] == "rebalance:scale-out:+1"


def test_membership_entry_without_cluster_layer_is_rejected():
    job = small_job()
    with pytest.raises(ConfigurationError, match="cluster layer"):
        inject_faults(job, plan_of(
            FaultSpec(kind="worker_crash", at_s=5.0), leave(10.0),
        ))
    assert "faults" not in job.subsystems


def _scale_steps(membership_log) -> list:
    return [(entry["event"], entry["time"]) for entry in membership_log
            if entry["event"] in ("join", "leave-begin")]


ELASTIC_STEPS = [("join", 60.0)] * 4 + [("leave-begin", 150.0)] * 4


def test_elastic_scale_keeps_its_schedule_under_another_plan():
    from repro.experiments.runner import ExperimentSettings
    from repro.scenarios import run_scenario, scenario

    spec = scenario("elastic_scale").with_faults(preset_plan("crash"))
    assert [f.kind for f in spec.faults] == [
        "node_join", "node_leave", "worker_crash",
    ]
    settings = ExperimentSettings(duration_s=155.0, warmup_s=20.0, seed=1)
    result = run_scenario(spec, settings=settings)
    manager = result.job.subsystems["cluster"]
    assert _scale_steps(manager.membership_log) == ELASTIC_STEPS
    assert [e["kind"] for e in result.fault_events] == ["worker_crash"]


def test_elastic_scale_soak_keeps_its_schedule(monkeypatch):
    from repro.experiments import parallel
    from repro.resilience.soak import run_soak

    summaries = []
    run_grid = parallel.run_grid

    def spy(specs, **kwargs):
        summaries.extend(run_grid(specs, **kwargs))
        return summaries

    monkeypatch.setattr(parallel, "run_grid", spy)
    report = run_soak(kind="elastic_scale", seeds=(1,), duration_s=155.0,
                      warmup_s=20.0, cache=False)
    (summary,) = summaries
    assert _scale_steps(summary.cluster["membership"]) == ELASTIC_STEPS
    kinds = [fault["kind"] for fault in report.plan["faults"]]
    assert kinds[:2] == ["node_join", "node_leave"]
    assert "node_crash" not in kinds

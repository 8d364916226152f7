"""Unit tests for the checkpoint coordinator and state backend."""


from repro.config import CheckpointConfig, ClusterConfig, CostModel
from repro.core import MitigationPlan
from repro.stream import ConstantSource, StageSpec, StreamJob


def make_job(interval=4.0, mitigation=None, rate=2000.0):
    return StreamJob(
        stages=[
            StageSpec("s", parallelism=4, state_entry_bytes=200.0,
                      distinct_keys=2000),
        ],
        source=ConstantSource(rate),
        cluster=ClusterConfig(num_nodes=1, cores_per_node=4),
        checkpoint=CheckpointConfig(interval_s=interval, first_at_s=interval),
        cost=CostModel(cpu_seconds_per_message=0.0002),
        mitigation=mitigation,
        seed=5,
    )


def test_checkpoints_fire_on_schedule():
    job = make_job(interval=4.0)
    job.run(21.0)
    times = job.coordinator.checkpoint_times()
    assert times == [4.0, 8.0, 12.0, 16.0, 20.0]


def test_checkpoint_records_bytes_and_flush_counts():
    job = make_job()
    job.run(13.0)
    completed = job.coordinator.completed
    assert completed, "no checkpoint completed"
    record = completed[0]
    assert record.flushes == 4  # one flush per instance
    assert record.bytes > 0
    assert record.duration is not None and record.duration >= 0.0


def test_checkpoint_triggers_hdfs_backup():
    job = make_job()
    job.run(13.0)
    assert len(job.hdfs.completed) >= 2
    checkpoint_id, nbytes, submit, finish = job.hdfs.completed[0]
    assert nbytes > 0 and finish >= submit


def test_every_flush_bumps_l0_counter_until_compaction():
    job = make_job()
    job.run(13.0)  # 3 checkpoints < trigger (4): no compaction yet
    counts = [inst.store.l0_file_count for inst in job.stage("s").instances]
    assert counts == [3, 3, 3, 3]
    assert len(job.collector.spans.spans(kind="compaction")) == 0


def test_fourth_checkpoint_triggers_compaction_burst():
    job = make_job()
    job.run(22.0)  # 5 checkpoints: compactions after the 4th
    compactions = job.collector.spans.spans(kind="compaction")
    assert len(compactions) == 4  # one per instance
    for instance in job.stage("s").instances:
        assert instance.store.l0_file_count <= 1


def test_mitigation_delay_postpones_compaction_submission():
    immediate = make_job()
    immediate.run(18.0)
    delayed = make_job(mitigation=MitigationPlan(compaction_delay_s=1.5))
    delayed.run(18.0)
    first_immediate = min(
        s.submit for s in immediate.collector.spans.spans(kind="compaction")
    )
    first_delayed = min(
        s.submit for s in delayed.collector.spans.spans(kind="compaction")
    )
    assert first_delayed >= first_immediate + 1.0


def test_randomized_trigger_spreads_compactions_across_checkpoints():
    job = make_job(mitigation=MitigationPlan(randomize_compaction_trigger=True))
    job.run(60.0)
    spans = job.collector.spans
    counts = spans.per_cycle_counts(job.coordinator.checkpoint_times(),
                                    kind="compaction")
    busy_checkpoints = sum(1 for c in counts.values() if c > 0)
    # the static trigger would concentrate everything on every 4th CP;
    # randomization spreads over more checkpoints
    assert busy_checkpoints >= 4


def test_instances_block_during_flush():
    job = make_job()
    blocked_seen = []

    def probe():
        blocked_seen.append(
            any(inst.blocked for inst in job.stage("s").instances)
        )

    job.sim.schedule(4.001, probe)  # right after the first checkpoint
    job.run(6.0)
    assert blocked_seen == [True]


def test_stateless_stage_not_checkpointed():
    job = StreamJob(
        stages=[StageSpec("stateless", parallelism=2, stateful=False)],
        source=ConstantSource(100.0),
        cluster=ClusterConfig(num_nodes=1, cores_per_node=4),
        checkpoint=CheckpointConfig(interval_s=2.0, first_at_s=2.0),
        seed=1,
    )
    job.run(9.0)
    assert len(job.collector.spans) == 0
    assert all(r.flushes == 0 for r in job.coordinator.completed)

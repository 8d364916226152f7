"""Unit tests for the processor-sharing resource."""

import pytest

from repro.errors import SimulationError
from repro.sim import ProcessorSharingResource, ResourceTask, Simulator


def make_cpu(capacity=4.0):
    sim = Simulator()
    return sim, ProcessorSharingResource(sim, "cpu", capacity)


def test_single_task_runs_at_its_demand():
    sim, cpu = make_cpu(capacity=4.0)
    done = []
    cpu.submit(ResourceTask("t", "x", work=2.0, demand=1.0,
                            on_complete=lambda t: done.append(sim.now)))
    sim.run()
    assert done == [2.0]  # 2 units of work at 1 unit/s


def test_uncontended_tasks_run_in_parallel_at_full_demand():
    sim, cpu = make_cpu(capacity=4.0)
    done = {}
    for name, work in (("a", 1.0), ("b", 3.0)):
        cpu.submit(ResourceTask(name, "x", work=work, demand=1.0,
                                on_complete=lambda t: done.setdefault(t.name, sim.now)))
    sim.run()
    assert done == {"a": 1.0, "b": 3.0}


def test_oversubscription_scales_all_rates_proportionally():
    sim, cpu = make_cpu(capacity=4.0)
    done = []
    for i in range(8):  # total demand 8 on 4 cores -> rate 0.5 each
        cpu.submit(ResourceTask(f"t{i}", "x", work=1.0, demand=1.0,
                                on_complete=lambda t: done.append(sim.now)))
    sim.run()
    assert all(abs(t - 2.0) < 1e-9 for t in done)


def test_completion_frees_capacity_for_remaining_tasks():
    sim, cpu = make_cpu(capacity=1.0)
    done = {}
    cpu.submit(ResourceTask("short", "x", work=0.5, demand=1.0,
                            on_complete=lambda t: done.setdefault("short", sim.now)))
    cpu.submit(ResourceTask("long", "x", work=1.0, demand=1.0,
                            on_complete=lambda t: done.setdefault("long", sim.now)))
    sim.run()
    # both share 0.5 each until short finishes at t=1.0 having done 0.5;
    # long then has 0.5 left at full speed -> 1.5 total
    assert done["short"] == pytest.approx(1.0)
    assert done["long"] == pytest.approx(1.5)


def test_late_arrival_slows_running_task():
    sim, cpu = make_cpu(capacity=1.0)
    done = {}
    cpu.submit(ResourceTask("first", "x", work=1.0, demand=1.0,
                            on_complete=lambda t: done.setdefault("first", sim.now)))
    sim.schedule(0.5, lambda: cpu.submit(
        ResourceTask("second", "x", work=0.25, demand=1.0,
                     on_complete=lambda t: done.setdefault("second", sim.now))))
    sim.run()
    # first does 0.5 work by t=0.5, then shares: 0.25 each until second
    # finishes at t=1.0; first finishes its last 0.25 at t=1.25
    assert done["second"] == pytest.approx(1.0)
    assert done["first"] == pytest.approx(1.25)


def test_demand_above_one_uses_multiple_units():
    sim, cpu = make_cpu(capacity=4.0)
    done = []
    cpu.submit(ResourceTask("wide", "x", work=4.0, demand=4.0,
                            on_complete=lambda t: done.append(sim.now)))
    sim.run()
    assert done == [1.0]


def test_utilization_segments_record_usage():
    sim, cpu = make_cpu(capacity=4.0)
    cpu.submit(ResourceTask("t", "x", work=2.0, demand=2.0))
    sim.run()
    assert cpu.util_segments == [(0.0, 2.0), (1.0, 0.0)]


def test_task_observers_see_start_and_end():
    sim, cpu = make_cpu()
    events = []
    cpu.task_observers.append(lambda task, what: events.append((task.name, what)))
    cpu.submit(ResourceTask("t", "x", work=1.0))
    sim.run()
    assert events == [("t", "start"), ("t", "end")]


def test_submit_outside_run_sets_rates_at_once():
    sim, cpu = make_cpu(capacity=4.0)
    tasks = [cpu.submit(ResourceTask(f"t{i}", "x", work=10.0)) for i in range(8)]
    assert [t.rate for t in tasks] == [0.5] * 8
    assert cpu.util_segments == [(0.0, 4.0)]
    assert not sim._unsettled


def test_invalid_task_parameters_raise():
    with pytest.raises(SimulationError):
        ResourceTask("bad", "x", work=0.0)
    with pytest.raises(SimulationError):
        ResourceTask("bad", "x", work=1.0, demand=0.0)
    sim = Simulator()
    with pytest.raises(SimulationError):
        ProcessorSharingResource(sim, "cpu", 0.0)


def test_task_metadata_and_times():
    sim, cpu = make_cpu()
    task = cpu.submit(ResourceTask("t", "x", work=1.0, metadata={"k": 1}))
    sim.run()
    assert task.metadata == {"k": 1}
    assert task.start_time == 0.0
    assert task.end_time == pytest.approx(1.0)
    assert task.done


def test_same_instant_burst_completes_in_one_dispatch():
    sim, cpu = make_cpu(capacity=4.0)
    done = []
    for i in range(16):  # 16 identical flushes: rate 0.25 each, all finish at 4.0
        cpu.submit(ResourceTask(f"t{i}", "flush", work=1.0,
                                on_complete=lambda t: done.append((t.name, sim.now))))
    sim.run()
    assert done == [(f"t{i}", 4.0) for i in range(16)]
    assert sim.events_fired == 1
    assert cpu.util_segments == [(0.0, 4.0), (4.0, 0.0)]


def test_callback_that_raises_leaves_no_resource_enlisted():
    sim, cpu = make_cpu(capacity=4.0)

    def submit_then_fail():
        cpu.submit(ResourceTask("t", "x", work=1.0))
        raise ValueError("boom")

    sim.schedule(1.0, submit_then_fail)
    with pytest.raises(ValueError):
        sim.run()
    assert sim._unsettled == []
    assert not cpu._enlisted
    # the next mutation outside run() settles the whole pool at once
    late = cpu.submit(ResourceTask("late", "x", work=1.0))
    assert late.rate == 1.0
    sim.run()
    assert late.end_time == pytest.approx(2.0)


def test_on_complete_removing_a_burst_member_does_not_complete_it():
    sim, cpu = make_cpu(capacity=4.0)
    done = []
    tasks = []

    def on_complete(task):
        done.append(task.name)
        if task.name == "t0":
            cpu._tasks.remove(tasks[2])

    for i in range(4):
        tasks.append(cpu.submit(ResourceTask(f"t{i}", "x", work=1.0,
                                             on_complete=on_complete)))
    sim.run()
    assert done == ["t0", "t1", "t3"]
    assert tasks[2].end_time is None
    assert sim.events_fired == 1


def test_traffic_baseline_event_budget(traffic_baseline):
    # Each flush/compaction burst completes in one wheel event; one event
    # per finished task would put this back near 7 400.
    assert traffic_baseline.job.sim.events_fired == 2275

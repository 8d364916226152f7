"""Unit tests for simulated thread pools."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    JobPhase,
    ProcessorSharingResource,
    SimJob,
    SimThreadPool,
    Simulator,
)


def setup_pool(size=2, capacity=100.0):
    sim = Simulator()
    cpu = ProcessorSharingResource(sim, "cpu", capacity)
    pool = SimThreadPool(sim, "pool", size)
    return sim, cpu, pool


def job(cpu, name, work, on_complete=None, kind="flush"):
    return SimJob(name, kind, [JobPhase(cpu, work, demand=1.0)], on_complete)


def finished(pool):
    """Names of the jobs *pool* finishes, in order, via its "end" hook."""
    names = []
    pool.observers.append(lambda j, what: names.append(j.name) if what == "end" else None)
    return names


def test_pool_caps_concurrency():
    sim, cpu, pool = setup_pool(size=2)
    done = finished(pool)
    for i in range(5):
        pool.submit(job(cpu, f"j{i}", work=1.0))
    assert pool.active_count == 2
    assert pool.pending_count == 3
    sim.run()
    assert pool.active_count == 0
    assert len(done) == 5


def test_fifo_start_order():
    sim, cpu, pool = setup_pool(size=1)
    starts = []
    pool.observers.append(lambda j, what: starts.append(j.name) if what == "start" else None)
    for i in range(3):
        pool.submit(job(cpu, f"j{i}", work=1.0))
    sim.run()
    assert starts == ["j0", "j1", "j2"]


def test_queue_delay_measured():
    sim, cpu, pool = setup_pool(size=1)
    first = pool.submit(job(cpu, "first", work=2.0))
    second = pool.submit(job(cpu, "second", work=1.0))
    sim.run()
    assert first.queue_delay == pytest.approx(0.0)
    assert second.queue_delay == pytest.approx(2.0)
    assert second.duration == pytest.approx(1.0)


def test_multi_phase_job_charges_both_resources():
    sim = Simulator()
    cpu = ProcessorSharingResource(sim, "cpu", 10.0)
    disk = ProcessorSharingResource(sim, "disk", 100.0)
    pool = SimThreadPool(sim, "pool", 4)
    done = []
    pool.submit(
        SimJob(
            "two-phase",
            "flush",
            [JobPhase(cpu, 1.0, demand=1.0), JobPhase(disk, 50.0, demand=100.0)],
            on_complete=lambda j: done.append(sim.now),
        )
    )
    sim.run()
    assert done == [pytest.approx(1.0 + 0.5)]


def test_slot_held_across_phases():
    sim = Simulator()
    cpu = ProcessorSharingResource(sim, "cpu", 10.0)
    disk = ProcessorSharingResource(sim, "disk", 1.0)
    pool = SimThreadPool(sim, "pool", 1)
    order = []
    pool.observers.append(lambda j, w: order.append((j.name, w)))
    pool.submit(SimJob("a", "x", [JobPhase(cpu, 0.5), JobPhase(disk, 1.0, demand=1.0)]))
    pool.submit(SimJob("b", "x", [JobPhase(cpu, 0.5)]))
    sim.run()
    assert order.index(("a", "end")) < order.index(("b", "start"))


def test_resize_grows_pool_and_starts_pending():
    sim, cpu, pool = setup_pool(size=1)
    for i in range(3):
        pool.submit(job(cpu, f"j{i}", work=10.0))
    assert pool.active_count == 1
    pool.resize(3)
    assert pool.active_count == 3


def test_resize_shrink_does_not_preempt():
    sim, cpu, pool = setup_pool(size=3)
    done = finished(pool)
    for i in range(3):
        pool.submit(job(cpu, f"j{i}", work=1.0))
    pool.resize(1)
    assert pool.active_count == 3  # running jobs keep their slots
    sim.run()
    assert len(done) == 3


def test_observer_sequence():
    sim, cpu, pool = setup_pool()
    events = []
    pool.observers.append(lambda j, w: events.append(w))
    pool.submit(job(cpu, "j", work=1.0))
    sim.run()
    assert events == ["submitted", "start", "end"]


def test_invalid_configuration_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        SimThreadPool(sim, "p", 0)
    cpu = ProcessorSharingResource(sim, "cpu", 1.0)
    with pytest.raises(SimulationError):
        SimJob("empty", "x", [])
    pool = SimThreadPool(sim, "p", 1)
    with pytest.raises(SimulationError):
        pool.resize(0)


def test_backlog_counts_pending_and_active():
    sim, cpu, pool = setup_pool(size=1)
    for i in range(4):
        pool.submit(job(cpu, f"j{i}", work=1.0))
    assert pool.backlog == 4
    sim.run()
    assert pool.backlog == 0


def test_pause_freezes_starts_and_nests():
    sim, cpu, pool = setup_pool(size=2)
    pool.pause()
    pool.pause()
    pool.submit(job(cpu, "j", work=1.0))
    assert pool.active_count == 0 and pool.pending_count == 1
    pool.resume()
    assert pool.paused  # one pause still outstanding
    pool.resume()
    assert pool.active_count == 1
    with pytest.raises(SimulationError):
        pool.resume()  # unbalanced

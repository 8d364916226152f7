"""Behavioural tests for the unified scenario path: job wiring, the new
arrival sources, tenancy and the
windowed-join exactly-once invariants under a crash-and-restore plan."""

import pytest

from repro.apps import APPS
from repro.apps.tenancy import tenant_initial_l0, tenantize
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentSettings
from repro.faults import FaultPlan, FaultSpec
from repro.scenarios import (
    ScenarioSpec,
    WorkloadSpec,
    build_scenario_job,
    resolve_scenario,
    run_scenario,
    scenario,
    scenario_shard_unit,
)
from repro.stream.sources import (
    ClosedLoopSource,
    ConstantSource,
    DiurnalSource,
    PiecewiseSource,
)
from repro.stream.stage import SOURCE_INPUT

QUICK = ExperimentSettings(duration_s=30.0, warmup_s=10.0, seed=3)


# ----------------------------------------------------------------------
# job wiring
# ----------------------------------------------------------------------


def test_resolve_scenario_accepts_name_spec_and_dict():
    by_name = resolve_scenario("baseline_traffic")
    assert by_name is scenario("baseline_traffic")
    assert resolve_scenario(by_name) is by_name
    revived = resolve_scenario(by_name.to_dict())
    assert revived == by_name
    with pytest.raises(ConfigurationError):
        resolve_scenario(42)


@pytest.mark.parametrize("name, source_type", [
    ("baseline_traffic", ConstantSource),
    ("diurnal_flash", DiurnalSource),
    ("closed_loop", ClosedLoopSource),
])
def test_build_scenario_job_picks_the_arrival_source(name, source_type):
    job = build_scenario_job(scenario(name), seed=1)
    assert isinstance(job.source, source_type)


def test_piecewise_workload_builds_piecewise_source():
    spec = ScenarioSpec(
        app="traffic",
        workload=WorkloadSpec(arrival="piecewise",
                              schedule=((0.0, 1000.0), (10.0, 2000.0))),
    )
    job = build_scenario_job(spec, seed=1)
    assert isinstance(job.source, PiecewiseSource)
    assert spec.workload.steady_rate() == 2000.0


def test_join_job_has_a_two_input_stage():
    job = build_scenario_job("windowed_join", seed=1)
    names = [stage.spec.name for stage in job.stages]
    assert names == ["impressions", "clicks", "join", "sessions"]
    join_index = names.index("join")
    # the join consumes both branches; both branches consume the source
    assert sorted(job._inputs[join_index]) == [
        names.index("impressions"), names.index("clicks")
    ]
    assert set(job._source_fed) == {names.index("impressions"),
                                    names.index("clicks")}


def test_join_window_sizes_the_join_state():
    spec = scenario(
        "windowed_join",
        workload=WorkloadSpec(arrival="constant", rate=10000.0),
        window_s=5.0,
    )
    job = build_scenario_job(spec, seed=1)
    join = next(s for s in job.stages if s.spec.name == "join")
    assert join.spec.distinct_keys == 50000


def test_multi_tenant_job_replicates_the_chain():
    job = build_scenario_job(scenario("multi_tenant"), seed=1)
    names = [stage.spec.name for stage in job.stages]
    assert len(names) == 4 * 3  # 4 tenants x 3-stage traffic chain
    assert all(any(n.startswith(f"t{i}.") for n in names) for i in range(4))


def test_tenantize_wires_chains_independently():
    join_stages = APPS["join"].stages
    stages = tenantize(join_stages, 2)
    by_name = {s.name: s for s in stages}
    assert by_name["t1.join"].inputs == ("t1.impressions", "t1.clicks")
    assert by_name["t0.sessions"].inputs == ("t0.join",)
    assert by_name["t0.impressions"].inputs == (SOURCE_INPUT,)
    # each tenant receives its share of the source
    assert by_name["t0.impressions"].source_fraction == pytest.approx(
        join_stages[0].source_fraction / 2
    )
    assert tenant_initial_l0({"join": 3}, 2) == {"t0.join": 3, "t1.join": 3}


def test_skewed_workload_reaches_the_engine():
    job = build_scenario_job(scenario("hotkey_shift"), seed=1)
    assert job._skew_schedule == ((40.0, 0.30, 0), (120.0, 0.30, 2))


def test_shard_units_per_app():
    whole, what, _ = scenario_shard_unit(scenario("baseline_traffic"))
    assert (whole, what) == (4, "node groups")
    whole, what, _ = scenario_shard_unit(scenario("baseline_wordcount"))
    assert (whole, what) == (16, "cores")
    whole, what, _ = scenario_shard_unit(scenario("windowed_join"))
    assert (whole, what) == (4, "node groups")


# ----------------------------------------------------------------------
# the new sources
# ----------------------------------------------------------------------


def test_diurnal_source_cycles_between_trough_and_peak():
    src = DiurnalSource(base_rate=1000.0, period_s=100.0, trough_factor=0.2)
    peak = src._diurnal_rate(0.0)
    trough = src._diurnal_rate(50.0)
    assert peak == pytest.approx(1000.0, rel=0.05)
    assert trough == pytest.approx(200.0, rel=0.2)
    assert src.steady_rate() == 1000.0


def test_diurnal_burst_multiplies_the_curve():
    quiet = DiurnalSource(base_rate=1000.0, period_s=100.0)
    bursty = DiurnalSource(base_rate=1000.0, period_s=100.0,
                           bursts=((10.0, 5.0, 2.0),))
    assert bursty._rate_at(12.0) == pytest.approx(
        2.0 * quiet._rate_at(12.0)
    )
    assert bursty._rate_at(20.0) == pytest.approx(quiet._rate_at(20.0))


def test_closed_loop_steady_rate_is_littles_law():
    src = ClosedLoopSource(clients=1000, think_time_s=1.0,
                           base_service_s=0.001)
    assert src.steady_rate() == pytest.approx(1000.0 / 1.001)


def test_closed_loop_source_backs_off_under_backlog():
    """The closed-loop run self-limits: its offered rate never exceeds
    the open-loop equivalent, and a backlogged system pushes it below."""
    result = run_scenario("closed_loop", settings=QUICK)
    spec = scenario("closed_loop")
    open_rate = spec.workload.steady_rate()
    rates = [r for _, r in result.job.source.rate_history]
    assert rates and max(rates) <= open_rate * 1.001
    assert min(rates) < open_rate


# ----------------------------------------------------------------------
# run_scenario semantics
# ----------------------------------------------------------------------


def test_run_scenario_accepts_names_and_specs():
    by_name = run_scenario("baseline_traffic", settings=QUICK)
    by_spec = run_scenario(scenario("baseline_traffic"), settings=QUICK)
    assert (by_name.tail_summary(start=10.0)
            == by_spec.tail_summary(start=10.0))


def test_scenario_own_faults_apply_and_override_wins():
    crash = FaultPlan(name="crash", faults=(
        FaultSpec(kind="worker_crash", at_s=15.0, duration_s=1.0, node=0),
    ))
    spec = scenario("baseline_traffic").with_faults(crash)
    result = run_scenario(spec, settings=QUICK)
    assert [e["kind"] for e in result.job.subsystems["faults"].events] == [
        "worker_crash"
    ]
    # replacing the plan on the spec replaces what runs
    stall = FaultPlan(name="stall", faults=(
        FaultSpec(kind="flush_stall", at_s=15.0, duration_s=2.0, node=0),
    ))
    overridden = run_scenario(spec.with_faults(stall), settings=QUICK)
    assert [e["kind"] for e in overridden.job.subsystems["faults"].events] == [
        "flush_stall"
    ]


# ----------------------------------------------------------------------
# windowed join under crash-and-restore
# ----------------------------------------------------------------------


def test_windowed_join_exactly_once_under_crash():
    """The two-input join must keep its invariants when a worker crash
    rewinds both branches to the last completed checkpoint: no lost or
    duplicated window state, watermarks monotone after replay."""
    crash = FaultPlan(name="crash-restore", faults=(
        FaultSpec(kind="worker_crash", at_s=20.0, duration_s=2.0, node=0),
    ))
    spec = scenario("windowed_join", faults=crash)
    settings = ExperimentSettings(duration_s=60.0, warmup_s=10.0, seed=7)
    result = run_scenario(spec, settings=settings)
    job = result.job
    (event,) = job.subsystems["faults"].events
    assert event["kind"] == "worker_crash"
    assert event["restores"], "crash must restore from a checkpoint"
    assert all(r["restored"] for r in event["restores"])
    assert event["replayed_messages"] > 0
    assert job.subsystems["invariants"].violations == []
    # both input branches and the join keep flowing after the restore
    times, latency, _ = result.end_to_end_latency(30.0, 60.0)
    assert len(times) > 0 and float(latency.max()) > 0.0
    # checkpoints complete again after the crash (alignment recovered)
    completed_after = [
        t for t in result.coordinator.checkpoint_times() if t > 22.0
    ]
    assert completed_after

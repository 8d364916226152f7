"""ScenarioSpec/WorkloadSpec validation, serialization round-trips and
cache-key stability goldens for every library scenario."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.parallel import RunSpec, cache_key_from_dict
from repro.experiments.runner import ExperimentSettings
from repro.faults import FaultPlan, FaultSpec
from repro.resilience import DEFAULT_RESILIENCE
from repro.scenarios import (
    SCENARIOS,
    SOAK_POOL,
    ScenarioSpec,
    WorkloadSpec,
    sample_scenario,
    sample_scenarios,
    scenario,
    scenario_names,
)
from repro.serialize import from_dict, roundtrip, to_dict

GOLDEN_KEYS = Path(__file__).parent / "data" / "scenario_cache_keys.json"


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_workload_rejects_unknown_arrival():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(arrival="poisson")


def test_workload_piecewise_needs_schedule():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(arrival="piecewise")


def test_workload_closed_loop_needs_clients():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(arrival="closed_loop")


def test_workload_validates_skew_entries():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(skew=((0.0, 1.5, 0),))  # fraction > 1


def test_scenario_rejects_unknown_app():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(app="fraud-detection")


def test_scenario_rejects_bad_tenants():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(tenants=0)


def test_scenario_coerces_nested_dicts():
    spec = ScenarioSpec(
        app="traffic",
        workload={"arrival": "constant", "rate": 1000.0},
        faults={"name": "one", "faults": [
            {"kind": "worker_crash", "at_s": 10.0, "duration_s": 1.0},
        ]},
        resilience=True,
    )
    assert isinstance(spec.workload, WorkloadSpec)
    assert isinstance(spec.faults, FaultPlan)
    assert spec.resilience == DEFAULT_RESILIENCE


def test_unknown_library_scenario_is_an_error():
    with pytest.raises(ConfigurationError):
        scenario("no-such-scenario")


# ----------------------------------------------------------------------
# serialization round-trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_library_scenario_roundtrips(name):
    spec = scenario(name)
    assert roundtrip(spec) == spec
    # and through plain JSON text, as the CLI / cache would store it
    payload = json.loads(json.dumps(to_dict(spec)))
    assert from_dict(ScenarioSpec, payload) == spec


def test_custom_spec_with_faults_roundtrips():
    spec = ScenarioSpec(
        name="custom",
        app="join",
        workload=WorkloadSpec(arrival="diurnal", rate=5000.0,
                              bursts=((10.0, 5.0, 2.0),)),
        faults=FaultPlan(name="p", faults=(
            FaultSpec(kind="worker_crash", at_s=30.0, duration_s=2.0),
        )),
        resilience=True,
        tenants=2,
    )
    again = roundtrip(spec)
    assert again == spec
    assert again.workload.bursts == ((10.0, 5.0, 2.0),)


def test_workload_roundtrip_preserves_tuples():
    wl = WorkloadSpec(arrival="piecewise",
                      schedule=((0.0, 100.0), (10.0, 200.0)),
                      skew=((5.0, 0.5, 1),))
    again = roundtrip(wl)
    assert again == wl
    assert isinstance(again.schedule, tuple)
    assert isinstance(again.skew, tuple)


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------


def test_cache_keys_match_goldens():
    """The content hash of every library scenario is pinned.

    A mismatch means the scenario definition (or the key-dict schema)
    changed: previously cached results would silently no longer apply.
    If the change is intentional, regenerate the golden file (see
    tests/data/scenario_cache_keys.json)."""
    goldens = json.loads(GOLDEN_KEYS.read_text())
    assert sorted(goldens) == scenario_names()
    for name, expected in goldens.items():
        key = cache_key_from_dict(scenario(name).key_dict(),
                                  version="golden")
        assert key == expected, f"cache key drifted for scenario {name!r}"


def test_name_and_description_do_not_affect_the_key():
    spec = scenario("baseline_traffic")
    renamed = replace(spec, name="x", description="y")
    assert renamed.key_dict() == spec.key_dict()


def test_workload_change_changes_the_key():
    spec = scenario("baseline_traffic")
    faster = replace(spec, workload=replace(spec.workload, rate=61000.0))
    assert faster.key_dict() != spec.key_dict()


def test_runspec_scenario_key_is_stable_and_distinct():
    settings = ExperimentSettings(duration_s=10.0, warmup_s=2.0, seed=1)
    a = RunSpec(scenario=scenario("baseline_traffic"), settings=settings)
    b = RunSpec(scenario=scenario("windowed_join"), settings=settings)
    assert a.key_dict() != b.key_dict()
    # the whole address is settings + scenario content, nothing else
    assert set(a.key_dict()) == {"settings", "scenario"}
    assert a.key_dict()["scenario"] == scenario("baseline_traffic").key_dict()


# ----------------------------------------------------------------------
# the library and its sampler
# ----------------------------------------------------------------------


def test_library_names_are_consistent():
    assert scenario_names() == sorted(SCENARIOS)
    for name, spec in SCENARIOS.items():
        assert spec.name == name
        assert spec.description  # the catalog depends on these


def test_soak_pool_is_a_library_subset():
    assert set(SOAK_POOL) <= set(SCENARIOS)


def test_sampler_is_deterministic_and_seed_sensitive():
    assert sample_scenario(7) == sample_scenario(7)
    names = {sample_scenario(s).name for s in range(32)}
    assert len(names) > 1  # different seeds reach different scenarios
    assert names <= set(SOAK_POOL)
    specs = sample_scenarios((1, 2, 3))
    assert [s.name for s in specs] == [sample_scenario(s).name
                                       for s in (1, 2, 3)]


def test_sampler_salt_changes_the_draws():
    draws_a = [sample_scenario(s, salt=0).name for s in range(16)]
    draws_b = [sample_scenario(s, salt=1).name for s in range(16)]
    assert draws_a != draws_b


def test_sampler_rejects_empty_pool():
    with pytest.raises(ConfigurationError):
        sample_scenario(1, pool=())

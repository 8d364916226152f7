"""Tests for the content-addressed experiment result cache."""

import dataclasses
import json

import pytest

import repro.experiments.parallel as parallel_mod
from repro.experiments.parallel import (
    CACHE_ENV,
    RunSpec,
    cache_enabled,
    cache_load,
    cache_store,
    clear_cache,
    run_grid,
    spec_cache_key,
)
from repro.experiments.runner import ExperimentSettings
from repro.faults import FaultPlan, FaultSpec
from repro.scenarios import scenario

SHORT = ExperimentSettings(duration_s=25.0, warmup_s=8.0, seed=11)

CRASH_PLAN = FaultPlan(
    name="cache-crash",
    faults=(
        FaultSpec(kind="worker_crash", at_s=12.0, duration_s=2.0, node=0),
        FaultSpec(kind="slow_disk", at_s=18.0, duration_s=3.0, node=1,
                  factor=0.25),
    ),
)


def canonical(summary):
    return json.dumps(summary.to_dict(), sort_keys=True)


def faulted_spec(plan=CRASH_PLAN, label=""):
    return RunSpec(scenario=scenario("baseline_traffic", faults=plan),
                   settings=SHORT, label=label)


@pytest.fixture()
def cache_root(tmp_path):
    return tmp_path / "cache"


def test_hit_on_identical_spec(cache_root, monkeypatch):
    spec = RunSpec(settings=SHORT)
    first = run_grid([spec], cache_directory=cache_root)
    assert len(list(cache_root.glob("*.json"))) == 1

    # A cache hit must never re-run the simulation.
    def boom(_spec):
        raise AssertionError("cache miss: simulation re-executed")

    monkeypatch.setattr(parallel_mod, "execute_spec", boom)
    second = run_grid([spec], cache_directory=cache_root)
    assert second[0].to_dict() == first[0].to_dict()


def test_cold_and_warm_runs_carry_the_same_label(cache_root):
    """An unlabelled run is labelled with its scenario's name — on the
    cache hit too, which used to restamp the empty ``spec.label``."""
    spec = RunSpec(scenario="baseline_wordcount", settings=SHORT)
    cold = run_grid([spec], cache_directory=cache_root)[0]
    warm = run_grid([spec], cache_directory=cache_root)[0]
    assert cold.label == warm.label == "baseline_wordcount"
    assert warm.to_dict() == cold.to_dict()
    # name and label are not part of the address: a renamed copy hits the
    # same entry and comes back under its own name
    renamed = RunSpec(
        scenario=scenario("baseline_wordcount", name="my_wordcount"),
        settings=SHORT,
    )
    assert len(list(cache_root.glob("*.json"))) == 1
    hit = run_grid([renamed], cache_directory=cache_root)[0]
    assert len(list(cache_root.glob("*.json"))) == 1
    assert (hit.label, hit.scenario) == ("my_wordcount", "my_wordcount")


def test_miss_on_changed_seed(cache_root):
    spec = RunSpec(settings=SHORT)
    assert spec_cache_key(spec) != spec_cache_key(spec.with_seed(99))


def test_miss_on_changed_config(cache_root):
    base = RunSpec(settings=SHORT)
    assert spec_cache_key(base) != spec_cache_key(
        RunSpec(scenario=scenario("traffic", interval_s=16.0), settings=SHORT)
    )
    assert spec_cache_key(base) != spec_cache_key(
        RunSpec(scenario=scenario("traffic", storage="nvme"), settings=SHORT)
    )
    longer = dataclasses.replace(
        base, settings=dataclasses.replace(SHORT, duration_s=50.0)
    )
    assert spec_cache_key(base) != spec_cache_key(longer)


def test_miss_on_package_version_change(cache_root, monkeypatch):
    spec = RunSpec(settings=SHORT)
    key_now = spec_cache_key(spec)
    monkeypatch.setattr(parallel_mod, "_PACKAGE_VERSION", "999.0.0")
    assert spec_cache_key(spec) != key_now


def test_stale_version_entry_not_served(cache_root, monkeypatch):
    spec = RunSpec(settings=SHORT)
    run_grid([spec], cache_directory=cache_root)
    monkeypatch.setattr(parallel_mod, "_PACKAGE_VERSION", "999.0.0")
    assert cache_load(spec, cache_root) is None


def test_env_off_bypasses_cache(cache_root, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, "off")
    assert not cache_enabled()
    run_grid([RunSpec(settings=SHORT)], cache_directory=cache_root)
    assert not list(cache_root.glob("*.json"))


def test_cache_false_argument_bypasses_cache(cache_root):
    run_grid([RunSpec(settings=SHORT)], cache=False, cache_directory=cache_root)
    assert not list(cache_root.glob("*.json"))


def test_corrupt_entry_falls_back_to_running(cache_root):
    spec = RunSpec(settings=SHORT)
    first = run_grid([spec], cache_directory=cache_root)
    entry = next(cache_root.glob("*.json"))
    entry.write_text("{not json")
    again = run_grid([spec], cache_directory=cache_root)
    assert again[0].to_dict() == first[0].to_dict()


def test_store_and_load_roundtrip(cache_root):
    spec = RunSpec(settings=SHORT)
    summary = run_grid([spec], cache=False)[0]
    path = cache_store(spec, summary, cache_root)
    assert path.name == f"{spec_cache_key(spec)}.json"
    loaded = cache_load(spec, cache_root)
    assert loaded is not None
    assert loaded.to_dict() == summary.to_dict()


def test_clear_cache(cache_root):
    run_grid([RunSpec(settings=SHORT)], cache_directory=cache_root)
    assert clear_cache(cache_root) == 1
    assert not list(cache_root.glob("*.json"))


# ----------------------------------------------------------------------
# fault plans participate in the cache key and stay deterministic
# ----------------------------------------------------------------------


def test_fault_plan_changes_the_cache_key():
    clean = RunSpec(settings=SHORT)
    faulted = faulted_spec()
    other = faulted_spec(
        FaultPlan(name="other", faults=(
            FaultSpec(kind="flush_stall", at_s=12.0, duration_s=2.0, node=0),
        )),
    )
    keys = {spec_cache_key(clean), spec_cache_key(faulted),
            spec_cache_key(other)}
    assert len(keys) == 3


def test_fault_spec_accepts_plan_as_dict():
    spec = faulted_spec(CRASH_PLAN.to_dict())
    assert spec.scenario.faults == CRASH_PLAN
    assert spec_cache_key(spec) == spec_cache_key(faulted_spec())


def test_faulted_run_is_byte_identical_across_reruns(cache_root):
    spec = faulted_spec(label="determinism")
    first = run_grid([spec], cache=False)[0]
    second = run_grid([spec], cache=False)[0]
    assert canonical(first) == canonical(second)
    assert first.fault_events
    assert first.fault_plan["name"] == "cache-crash"


def test_faulted_run_round_trips_through_the_cache(cache_root, monkeypatch):
    spec = faulted_spec()
    fresh = run_grid([spec], cache_directory=cache_root)[0]

    def boom(_spec):
        raise AssertionError("cache miss: simulation re-executed")

    monkeypatch.setattr(parallel_mod, "execute_spec", boom)
    cached = run_grid([spec], cache_directory=cache_root)[0]
    assert canonical(cached) == canonical(fresh)


@pytest.mark.slow
def test_faulted_run_identical_serial_and_parallel(cache_root):
    spec = faulted_spec()
    serial = run_grid([spec, spec.with_seed(12)], cache=False, jobs=1)
    parallel = run_grid([spec, spec.with_seed(12)], cache=False, jobs=2)
    assert [canonical(s) for s in serial] == [canonical(s) for s in parallel]

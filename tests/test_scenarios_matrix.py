"""Scenario-matrix smoke: every library scenario runs end to end.

Each scenario executes briefly through the two public paths — the
cache-backed RunSpec executor (what ``repro run --scenario`` uses) and
:func:`repro.api.run_scenario` — and must produce finite latencies, a
serializable summary and its own distinct cache key.  Marked slow: CI
runs this lane as the scenario-matrix job.
"""

import math

import pytest

from repro import api
from repro.experiments.parallel import RunSpec, run_grid, spec_cache_key
from repro.scenarios import scenario, scenario_names

SETTINGS = api.ExperimentSettings(duration_s=30.0, warmup_s=10.0, seed=11)

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_runs_through_the_executor(name):
    spec = RunSpec(
        scenario=scenario(name), settings=SETTINGS, label=f"matrix-{name}"
    )
    (summary,) = run_grid([spec], cache=False)
    assert summary.kind == "scenario"
    assert summary.scenario == name
    assert summary.label == f"matrix-{name}"
    tails = summary.tails
    assert set(tails) >= {"p50", "p95", "p99", "p999", "max"}
    assert all(math.isfinite(v) and v > 0.0 for v in tails.values())
    assert tails["p50"] <= tails["p999"] <= tails["max"]
    assert summary.checkpoint_times, "checkpoints must complete"
    assert not summary.invariant_violations
    # the summary survives the cache's round-trip contract
    again = type(summary).from_dict(summary.to_dict())
    assert again.tails == tails and again.scenario == name


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_runs_through_api_run_scenario(name):
    result = api.run_scenario(name, settings=SETTINGS)
    tails = result.tail_summary(start=SETTINGS.warmup_s)
    assert math.isfinite(tails["p999"]) and tails["p999"] > 0.0


def test_every_scenario_has_a_distinct_cache_key():
    keys = {}
    for name in scenario_names():
        spec = RunSpec(scenario=scenario(name), settings=SETTINGS)
        keys[name] = spec_cache_key(spec)
    assert len(set(keys.values())) == len(keys)

"""Shared fixtures.

Full-pipeline runs take ~1-2 s each, so the integration tests share
session-scoped results instead of re-running the simulation per test.
"""

from __future__ import annotations

import os

import pytest

from repro.core import MitigationPlan
from repro.experiments.parallel import CACHE_DIR_ENV
from repro.scenarios import build_scenario_job, scenario


@pytest.fixture(scope="session", autouse=True)
def _isolated_run_cache(tmp_path_factory):
    """Keep experiment-result cache writes out of the repo during tests.

    Tests still benefit from intra-session cache hits (repeated CLI
    smoke runs of the same figure reuse one simulation)."""
    cache_root = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(cache_root)
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous

#: Standard measurement window for the shared runs.
WARMUP = 40.0
DURATION = 160.0


@pytest.fixture(scope="session")
def traffic_baseline():
    return build_scenario_job("baseline_traffic", seed=1).run(DURATION)


@pytest.fixture(scope="session")
def traffic_solution():
    spec = scenario(
        "baseline_traffic", mitigation=MitigationPlan.paper_solution()
    )
    return build_scenario_job(spec, seed=1).run(DURATION)


@pytest.fixture(scope="session")
def traffic_staggered_16s():
    spec = scenario("baseline_traffic", interval_s=16.0, initial_l0="staggered")
    return build_scenario_job(spec, seed=1).run(200.0)


@pytest.fixture(scope="session")
def wordcount_baseline():
    return build_scenario_job("baseline_wordcount", seed=2).run(DURATION)


@pytest.fixture(scope="session")
def wordcount_solution():
    spec = scenario(
        "baseline_wordcount", mitigation=MitigationPlan.paper_solution()
    )
    return build_scenario_job(spec, seed=2).run(DURATION)

"""Declarative scenarios: workload x app x faults x resilience.

See :mod:`repro.scenarios.spec` for the :class:`ScenarioSpec` object,
:mod:`repro.scenarios.library` for the named catalog, and
:mod:`repro.scenarios.run` for the unified :func:`run_scenario` entry
point.
"""

from .library import (
    SCENARIOS,
    SOAK_POOL,
    sample_scenario,
    sample_scenarios,
    scenario,
    scenario_names,
)
from .run import (
    build_scenario_job,
    resolve_scenario,
    run_scenario,
    scenario_shard_unit,
)
from .spec import APPS, ARRIVALS, ScenarioSpec, WorkloadSpec

__all__ = [
    "APPS",
    "ARRIVALS",
    "SCENARIOS",
    "SOAK_POOL",
    "ScenarioSpec",
    "WorkloadSpec",
    "build_scenario_job",
    "resolve_scenario",
    "run_scenario",
    "sample_scenario",
    "sample_scenarios",
    "scenario",
    "scenario_names",
    "scenario_shard_unit",
]

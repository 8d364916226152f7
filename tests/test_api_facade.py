"""Tests for the repro.api facade and the keyword-only constructors."""

import warnings

import pytest

from repro import api
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import ExperimentSettings
from repro.scenarios import ScenarioSpec, WorkloadSpec


def test_every_declared_export_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_facade_covers_the_advertised_surface():
    expected = {
        "run_scenario", "run_grid",
        "ExperimentSettings", "RunSpec", "RunSummary", "MitigationPlan",
        "Tracer", "NullTracer", "build_scenario_job", "scenario",
        "analyze_result", "analyze_trace",
    }
    assert expected <= set(api.__all__)
    # an app is a row of repro.apps.APPS: one builder serves them all
    assert [n for n in api.__all__ if n.startswith("build_")] == [
        "build_scenario_job"
    ]
    # per-layer time is perfbench's, function-level hotspots cProfile's
    assert not {"profile", "profile_run", "ProfileReport"} & set(api.__all__)
    # no run ever installed the Kafka commit wrapper
    assert not {"ResilientKafkaCommitter", "RetryExhaustedError"} & set(
        api.__all__
    )
    # no state transfer ever retried, tripped a breaker or joined a
    # node of its own shape
    assert not {"RetryPolicy", "CircuitBreaker", "NodeSpec"} & set(api.__all__)
    # node joins and leaves are fault-plan entries
    assert "MembershipEvent" not in api.__all__
    # spans are the detector's only evidence: a cached run is analyzed
    # through its trace
    assert "analyze_summary" not in api.__all__
    assert len(api.__all__) == 98


def test_facade_reexports_are_the_implementation_objects():
    from repro.experiments import runner
    from repro.scenarios import run
    from repro.trace import Tracer

    assert api.run_scenario is run.run_scenario
    assert api.ExperimentSettings is runner.ExperimentSettings
    assert api.Tracer is Tracer


# ----------------------------------------------------------------------
# keyword-only constructors
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "cls", [ExperimentSettings, RunSpec, ScenarioSpec, WorkloadSpec],
    ids=lambda cls: cls.__name__,
)
def test_keyword_only_classes_reject_positional_args(cls):
    """The one-release grace period is over: a positional argument is a
    TypeError, never a silent mapping onto the (reordered) field list."""
    with pytest.raises(TypeError, match="positional"):
        cls("wordcount")
    with pytest.raises(TypeError, match="positional"):
        cls(1.0, 2.0, 3)


def test_settings_keyword_args_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        settings = ExperimentSettings(duration_s=120.0, warmup_s=30.0)
        settings.with_seed(9)
        settings.seed_series(3)

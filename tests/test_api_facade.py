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
        "run_scenario", "sweep", "run_grid",
        "ExperimentSettings", "RunSpec", "RunSummary", "MitigationPlan",
        "Tracer", "NullTracer", "build_traffic_job", "build_wordcount_job",
        "analyze_result", "analyze_summary", "analyze_trace",
        "to_dict", "from_dict",
    }
    assert expected <= set(api.__all__)


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

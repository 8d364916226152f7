"""Tests for the repro.api facade and the keyword-only constructors."""

import warnings

import pytest

from repro import api
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import ExperimentSettings


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


def test_settings_positional_args_warn_but_map_in_field_order():
    with pytest.warns(DeprecationWarning):
        settings = ExperimentSettings(120.0, 30.0, 5)
    assert settings.duration_s == 120.0
    assert settings.warmup_s == 30.0
    assert settings.seed == 5


def test_settings_keyword_args_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        settings = ExperimentSettings(duration_s=120.0, warmup_s=30.0)
        settings.with_seed(9)
        settings.seed_series(3)


def test_runspec_positional_args_warn():
    with pytest.warns(DeprecationWarning):
        spec = RunSpec("wordcount")
    assert spec.kind == "wordcount"
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        RunSpec(kind="traffic", interval_s=16.0).with_seed(3)


def test_positional_duplicate_and_overflow_raise():
    with pytest.warns(DeprecationWarning):
        with pytest.raises(TypeError):
            ExperimentSettings(120.0, duration_s=100.0)
    with pytest.warns(DeprecationWarning):
        with pytest.raises(TypeError):
            ExperimentSettings(*range(10))

"""Figure-function plumbing the claims table does not read (what the
figures measure is checked in tests/test_paper_claims.py)."""

from dataclasses import replace

import pytest

from repro.experiments import ExperimentSettings, figures

SHORT = ExperimentSettings(duration_s=104.0, warmup_s=32.0, seed=1)


def test_fig15_keeps_every_setting_but_the_duration(monkeypatch):
    class Captured(Exception):
        pass

    seen = []

    def capture(specs, jobs=None):
        seen.extend(specs)
        raise Captured

    monkeypatch.setattr(figures, "run_grid", capture)
    settings = ExperimentSettings(trace=True, fine_window_s=0.1)
    with pytest.raises(Captured):
        figures.fig15_kneedle(settings)
    assert seen[0].settings == replace(settings, duration_s=280.0)


def test_result_summary_is_json_serializable():
    import json

    from repro.api import run_scenario

    result = run_scenario("baseline_traffic", settings=SHORT)
    summary = result.summary(start=SHORT.warmup_s)
    encoded = json.dumps(summary)
    decoded = json.loads(encoded)
    assert decoded["checkpoints"]["completed"] > 0
    assert decoded["activities"]["flushes"] > 0
    assert 0 < decoded["mean_cpu_cores"] <= 16.0

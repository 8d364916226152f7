"""Figure-table plumbing the claims table does not read (what the
figures measure is checked in tests/test_paper_claims.py): every
figure dict is pinned by hash, and each distinct run is made once."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import ExperimentSettings, figures
from repro.experiments.claims import evaluate
from repro.experiments.figures import EXPERIMENTS, FIGURES, run_figures
from repro.experiments.parallel import spec_cache_key

SHORT = ExperimentSettings(duration_s=104.0, warmup_s=32.0, seed=1)

#: sha256 of every figure dict at :data:`GOLDEN_SETTINGS`, recorded at
#: the commit before the figure functions became rows of one table,
#: through each function (regenerate: tests/make_figure_golden.py).
FIGURE_GOLDEN = Path(__file__).parent / "data" / "figure_golden.json"
GOLDEN_SETTINGS = ExperimentSettings(duration_s=48.0, warmup_s=16.0, seed=1)


def figure_hashes(outs: dict) -> dict:
    """sha256 of each figure dict's JSON text, key order kept."""
    return {
        name: hashlib.sha256(
            json.dumps(out, default=str).encode("utf-8")
        ).hexdigest()
        for name, out in outs.items()
    }


@pytest.fixture(scope="module")
def hashes():
    return figure_hashes(run_figures(FIGURES, GOLDEN_SETTINGS))


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_dict_matches_the_golden(hashes, name):
    assert hashes[name] == json.loads(FIGURE_GOLDEN.read_text())[name]


def test_the_scheduled_exemplar_runs_once_for_four_figures(monkeypatch):
    runs = []
    real = figures.run_scenario

    def counting(spec, **options):
        runs.append(spec.name)
        return real(spec, **options)

    monkeypatch.setattr(figures, "run_scenario", counting)
    assert evaluate(["fig1", "table1", "fig6", "fig7"]).ok
    assert runs == ["scheduled_traffic"]


def test_shared_specs_go_through_one_grid_call(monkeypatch):
    calls = []
    real = figures.run_grid

    def counting(specs, **options):
        calls.append([spec_cache_key(spec) for spec in specs])
        return real(specs, **options)

    monkeypatch.setattr(figures, "run_grid", counting)
    run_figures(["fig16", "fig17", "fig18", "fig20", "headline"], GOLDEN_SETTINGS)
    # fig16 2 + fig17 (= fig18) 2 + fig20 2 + the headline's mitigated
    # run; fig20's tmpfs baseline and the headline's baseline repeat
    (keys,) = calls
    assert len(keys) == len(set(keys)) == 7


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
        EXPERIMENTS["fig15"].reduce({}, settings)
    assert seen[0].settings == replace(settings, duration_s=280.0)


def test_result_summary_is_json_serializable():
    from repro.api import run_scenario

    result = run_scenario("baseline_traffic", settings=SHORT)
    summary = result.summary(start=SHORT.warmup_s)
    encoded = json.dumps(summary)
    decoded = json.loads(encoded)
    assert decoded["checkpoints"]["completed"] > 0
    assert decoded["activities"]["flushes"] > 0
    assert 0 < decoded["mean_cpu_cores"] <= 16.0

"""Seeded smoke tests for the joint-space auto-tuner (``repro tune``)."""

import json

import pytest

from repro.core import MitigationPlan, TunedConfig, TuneReport, tune

#: One policy keeps the smoke grid at 4 runs (baseline, paper, 2 pools)
#: while still exercising the full search/rank/knee/artifact path.
TUNE_ARGS = dict(scenario="baseline_traffic", smoke=True, seed=1,
                 policies=["flush_first"])


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tune-cache")


@pytest.fixture(scope="module")
def report(cache_dir):
    return tune(cache=True, cache_directory=cache_dir, **TUNE_ARGS)


def test_best_beats_paper_mitigation(report):
    best = report.best
    assert best.policy == "flush_first"
    assert best.p999 < best.paper_p999 < best.baseline_p999
    assert best.improvement_vs_paper > 0.0


def test_rows_cover_the_whole_grid(report):
    labels = [row["label"] for row in report.rows]
    assert labels[:2] == ["baseline", "paper"]
    assert len(labels) == 4  # baseline, paper, flush_first × 2 pools
    assert all(label.startswith("flush_first/") for label in labels[2:])


def test_rerun_is_deterministic_and_cache_hot(report, cache_dir):
    entries_before = sorted(p.name for p in cache_dir.iterdir())
    again = tune(cache=True, cache_directory=cache_dir, **TUNE_ARGS)
    assert again == report
    # every run came from the cache: no new entries appeared
    assert sorted(p.name for p in cache_dir.iterdir()) == entries_before


def test_report_roundtrips_and_plan_revives(report):
    assert TuneReport.from_dict(report.to_dict()) == report
    assert isinstance(report.best, TunedConfig)
    plan = report.best.plan()
    assert isinstance(plan, MitigationPlan)
    assert plan.compaction_policy == "flush_first"
    assert plan.flush_threads == 16


def test_render_headline_table(report):
    text = report.render()
    assert "baseline" in text and "paper" in text
    assert report.best.label in text
    assert "best: " in text and "vs paper" in text


def test_cli_tune_writes_artifact(cache_dir, tmp_path, monkeypatch, capsys):
    from repro.experiments.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    out = tmp_path / "tuned.json"
    code = main(["tune", "--smoke", "--policies", "flush_first",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    artifact = json.loads(out.read_text())
    assert artifact["policy"] == "flush_first"
    assert artifact["p999"] < artifact["paper_p999"]
    assert "best: " in capsys.readouterr().out
    # the CI perf gate passes while the winner beats the paper plan
    monkeypatch.setenv("REPRO_PERF_GATE", "1")
    assert main(["tune", "--smoke", "--policies", "flush_first",
                 "--seed", "1"]) == 0

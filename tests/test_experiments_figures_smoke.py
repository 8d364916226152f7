"""Smoke tests: every experiment function returns a well-formed dict.

Run with a short horizon — the *shape* assertions live in the benchmark
suite; here we only verify structure, so experiment code stays covered
by `pytest tests/`.
"""

import pytest

from repro.experiments import (
    ExperimentSettings,
    fig8_statistical,
    fig16_traffic_mitigation,
    fig17_wordcount_tails,
    headline_reduction,
    table1_checkpoint_stats,
)

SHORT = ExperimentSettings(duration_s=104.0, warmup_s=32.0, seed=1)


@pytest.fixture(scope="module")
def fig8_out():
    return fig8_statistical(SHORT)


def test_fig8_structure(fig8_out):
    assert set(fig8_out) >= {"times", "p999", "spikes", "spike_period_s",
                             "per_checkpoint_compactions", "tails"}
    assert len(fig8_out["times"]) == len(fig8_out["p999"])
    assert fig8_out["tails"]["p999"] > 0


def test_table1_structure():
    out = table1_checkpoint_stats(
        ExperimentSettings(duration_s=200.0, warmup_s=40.0, seed=1)
    )
    assert len(out["rows"]) == 5
    for row in out["rows"]:
        assert {"checkpoint", "time", "flush_count",
                "compaction_count"} <= set(row)


def test_fig16_structure():
    out = fig16_traffic_mitigation(SHORT)
    for side in ("baseline", "solution"):
        assert {"tails", "timeline", "peak_p999", "overlap"} <= set(out[side])
    assert 0 < out["reduction_p999"] < 1.5
    assert 0 < out["reduction_p95"] < 1.5


def test_fig17_structure():
    out = fig17_wordcount_tails(SHORT)
    assert out["baseline"]["tails"]["p999"] > 0
    assert out["solution"]["tails"]["p999"] > 0


def test_headline_structure():
    out = headline_reduction(SHORT)
    assert {"baseline", "mitigated", "reduction_p999",
            "reduction_p95"} == set(out)


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

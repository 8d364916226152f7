"""Two measurement findings, pinned as strict expected-failures.

Fixing either moves every golden, so neither is fixed here; a strict
xfail turns into a failure the day the cause is fixed, which is when
the marker — and the ``note`` on the Fig 8 / Fig 16 "> 2 s" claim rows
— should go (ROADMAP: measurement validity; `repro explain`).
"""

import pytest

from repro.analysis.millibottleneck import analyze_summary
from repro.api import run_scenario
from repro.experiments import DEFAULT_SETTINGS, summarize_run
from repro.metrics.percentiles import weighted_quantile


@pytest.fixture(scope="module")
def baseline():
    return run_scenario("baseline_traffic", settings=DEFAULT_SETTINGS)


@pytest.mark.xfail(strict=True, reason=(
    "latency_from_segments clamps away the backlog queued at the warmup "
    "instant: p99.9 reads 1.96 s when the timeline starts at 40 s and "
    "2.71 s for the same arrivals when it starts at 0"
))
def test_tail_does_not_depend_on_where_the_timeline_starts(baseline):
    warmup = DEFAULT_SETTINGS.warmup_s
    times, latency, weights = baseline.end_to_end_latency(
        0.0, DEFAULT_SETTINGS.duration_s
    )
    measured = times >= warmup
    whole_run = weighted_quantile(latency[measured], 0.999, weights[measured])
    assert baseline.tail_summary(start=warmup)["p999"] == pytest.approx(
        whole_run, rel=0.05
    )


@pytest.mark.xfail(strict=True, reason=(
    "analyze_summary calls the paper's Figure 8 statistical-ShadowSync "
    "exemplar 'none' (0 of 5 spikes attributed) at the standard settings, "
    "though 'statistical' (3 of 3) at repro trace's 104 s / 32 s"
))
def test_detector_names_the_statistical_exemplar(baseline):
    report = analyze_summary(summarize_run(baseline, DEFAULT_SETTINGS))
    assert report.classification == "statistical"
    assert report.attributed_count >= 3

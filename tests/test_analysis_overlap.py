"""Unit tests for overlap analysis."""

import pytest

from repro.analysis import (
    alignment_score,
    burst_alignment,
    overlap_report,
)
from repro.errors import AnalysisError
from repro.metrics import ActivitySpan, SpanLog


def make_log():
    log = SpanLog()

    def add(kind, stage, start, end):
        log.add(ActivitySpan(kind=kind, name="x", stage=stage, instance=0,
                             node="n", start=start, end=end))
    return log, add


def test_overlap_report_quantifies_coactivity():
    log, add = make_log()
    add("flush", "s0", 0.0, 1.0)
    add("compaction", "s0", 0.5, 3.0)
    report = overlap_report(log, 0.0, 4.0, dt=0.01)
    assert report.flush_busy_s == pytest.approx(1.0, abs=0.05)
    assert report.compaction_busy_s == pytest.approx(2.5, abs=0.05)
    assert report.flush_compaction_overlap_s == pytest.approx(0.5, abs=0.05)
    assert 0.15 < report.overlap_fraction < 0.25
    assert report.peak_flush_concurrency == 1


def test_overlap_report_empty_window_raises():
    log, _add = make_log()
    with pytest.raises(AnalysisError):
        overlap_report(log, 5.0, 5.0)


def test_burst_alignment_counts_per_checkpoint():
    log, add = make_log()
    add("compaction", "s0", 1.0, 2.0)
    add("compaction", "s0", 1.5, 2.0)
    add("compaction", "s1", 9.0, 10.0)
    result = burst_alignment(log, ["s0", "s1"], [0.0, 8.0])
    assert result[0] == {"s0": 2, "s1": 0}
    assert result[1] == {"s0": 0, "s1": 1}


def test_alignment_score_high_when_bursts_coincide():
    aligned = {0: {"s0": 64, "s1": 64}, 1: {"s0": 0, "s1": 0}}
    alternating = {0: {"s0": 64, "s1": 0}, 1: {"s0": 0, "s1": 64}}
    assert alignment_score(aligned) > 0.95
    assert alignment_score(alternating) < 0.85


def test_alignment_score_empty_raises():
    with pytest.raises(AnalysisError):
        alignment_score({})

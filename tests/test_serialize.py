"""Tests for the unified serialization protocol (repro.serialize)."""

import json

import pytest

from repro.analysis.overlap import OverlapReport
from repro.experiments.runner import ExperimentSettings
from repro.experiments.summary import RunSummary
from repro.metrics.collector import CheckpointStats
from repro.serialize import from_dict, registered, roundtrip, to_dict


def json_round(obj):
    """The exact transformation a cache/file round trip applies."""
    return json.loads(json.dumps(to_dict(obj)))


def test_checkpoint_stats_round_trip():
    stats = CheckpointStats(3, 24.0)
    stats.flush_count = {"s0": 64, "s1": 64}
    stats.flush_ms = {"s0": 81.5}
    stats.compaction_count = {"s0": 16}
    stats.compaction_ms = {"s0": 412.0}
    stats.compaction_input_mb = 512.5
    revived = from_dict(CheckpointStats, json_round(stats))
    assert revived.to_dict() == stats.to_dict()


def test_overlap_report_round_trip():
    report = OverlapReport((40.0, 200.0))
    report.flush_compaction_overlap_s = 12.5
    report.flush_busy_s = 30.0
    report.compaction_busy_s = 50.0
    report.peak_flush_concurrency = 128
    report.peak_compaction_concurrency = 64
    revived = from_dict("OverlapReport", json_round(report))
    assert revived.to_dict() == report.to_dict()
    # overlap_fraction is derived, not stored state
    assert revived.overlap_fraction == pytest.approx(12.5 / 50.0)


def test_experiment_settings_round_trip():
    settings = ExperimentSettings(duration_s=80.0, seed=9, trace=True)
    assert roundtrip(settings) == settings
    assert from_dict("ExperimentSettings", json_round(settings)) == settings


def test_run_summary_round_trip():
    summary = RunSummary(
        kind="wordcount",
        label="x",
        tails={"p999": 1.5},
        per_checkpoint_compactions={0: {"count": 3}},
        trace_schema=1,
        trace_events=[{"name": "e", "cat": "flush", "ph": "i", "ts": 1.0,
                       "dur": 0.0, "tid": "", "args": {}}],
    )
    revived = from_dict(RunSummary, json_round(summary))
    assert revived == summary
    # JSON stringifies the int keys; from_dict must restore them
    assert 0 in revived.per_checkpoint_compactions


def test_registry_knows_the_protocol_classes():
    for name, cls in (
        ("CheckpointStats", CheckpointStats),
        ("OverlapReport", OverlapReport),
        ("ExperimentSettings", ExperimentSettings),
        ("RunSummary", RunSummary),
    ):
        assert registered(name) is cls
    with pytest.raises(KeyError):
        registered("NoSuchClass")


def test_plain_dataclass_fallback():
    import dataclasses

    @dataclasses.dataclass
    class Point:
        x: int = 0
        y: int = 0

    assert to_dict(Point(1, 2)) == {"x": 1, "y": 2}
    assert from_dict(Point, {"x": 3, "y": 4, "junk": 5}) == Point(3, 4)


def test_unsupported_objects_raise():
    with pytest.raises(TypeError):
        to_dict(object())
    with pytest.raises(TypeError):
        from_dict(object, {})

"""Unit tests for activity spans and the span log."""

import pytest

from repro.metrics import ActivitySpan, SpanLog


def span(kind="flush", stage="s0", start=0.0, end=1.0, instance=0,
         node="node0", input_bytes=0):
    return ActivitySpan(
        kind=kind, name=f"{kind}-{stage}/{instance}", stage=stage,
        instance=instance, node=node, start=start, end=end,
        input_bytes=input_bytes,
    )


def test_span_duration_and_overlap():
    a = span(start=0.0, end=2.0)
    b = span(start=1.0, end=3.0)
    c = span(start=2.0, end=4.0)
    assert a.duration == 2.0
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c)  # touching endpoints do not overlap


def test_filtering_by_kind_stage_node_window():
    log = SpanLog()
    log.add(span(kind="flush", stage="s0", node="node0", start=0, end=1))
    log.add(span(kind="flush", stage="s1", node="node1", start=5, end=6))
    log.add(span(kind="compaction", stage="s0", node="node0", start=2, end=4))
    assert log.count(kind="flush") == 2
    assert log.count(stage="s0") == 2
    assert log.count(node="node1") == 1
    assert log.count(kind="flush", window=(4.0, 10.0)) == 1
    assert len(log) == 3


def test_total_input_bytes():
    log = SpanLog()
    log.add(span(kind="compaction", input_bytes=100, start=0, end=1))
    log.add(span(kind="compaction", input_bytes=300, start=0, end=3))
    assert log.total_input_bytes(kind="compaction") == 400
    assert log.total_input_bytes(kind="flush") == 0


def test_concurrency_series_counts_overlaps():
    log = SpanLog()
    log.add(span(start=0.0, end=2.0))
    log.add(span(start=1.0, end=3.0))
    times, counts = log.concurrency_series(0.0, 4.0, dt=0.5)
    at = lambda t: counts[int(t / 0.5)]
    assert at(0.0) == 1
    assert at(1.5) == 2
    assert at(2.5) == 1
    assert at(3.5) == 0


def test_overlap_seconds_between_kinds():
    log = SpanLog()
    log.add(span(kind="flush", start=0.0, end=1.0))
    log.add(span(kind="compaction", start=0.5, end=2.0))
    overlap = log.overlap_seconds("flush", "compaction", 0.0, 3.0, dt=0.01)
    assert overlap == pytest.approx(0.5, abs=0.05)


def test_per_cycle_counts_assigns_by_start_time():
    log = SpanLog()
    log.add(span(kind="compaction", stage="s0", start=1.0, end=9.0))
    log.add(span(kind="compaction", stage="s0", start=8.5, end=9.0))
    log.add(span(kind="compaction", stage="s1", start=17.0, end=18.0))
    counts = log.per_cycle_counts([0.0, 8.0, 16.0], kind="compaction", stage="s0")
    assert counts == {0: 1, 1: 1, 2: 0}
    counts_s1 = log.per_cycle_counts([0.0, 8.0, 16.0], kind="compaction", stage="s1")
    assert counts_s1[2] == 1

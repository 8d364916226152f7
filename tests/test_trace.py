"""Tests for the structured tracing subsystem (repro.trace)."""

import json
from pathlib import Path

import pytest

from repro.sim import (
    JobPhase,
    ProcessorSharingResource,
    SimJob,
    SimThreadPool,
    Simulator,
)
from repro.trace import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    TraceEvent,
    Tracer,
    ensure_tracer,
    read_jsonl,
)

GOLDEN = Path(__file__).parent / "data" / "trace_golden.jsonl"


def traced_pool_run():
    """A tiny deterministic traced simulation: 2 pool jobs on one CPU."""
    tracer = Tracer()
    sim = Simulator(seed=7, tracer=tracer)
    cpu = ProcessorSharingResource(sim, "cpu", 4.0)
    pool = SimThreadPool(sim, "node0/flush", 1)
    for i in range(2):
        pool.submit(
            SimJob(
                f"flush-{i}",
                "flush",
                [JobPhase(cpu, 2.0, demand=1.0)],
                metadata={"stage": "s0", "instance": i, "input_bytes": 1000},
            )
        )
    sim.run()
    return tracer


# ----------------------------------------------------------------------
# Tracer basics
# ----------------------------------------------------------------------


def test_complete_instant_counter_events():
    tracer = Tracer()
    tracer.complete("work", "flush", 1.0, 0.5, tid="pool", foo=1)
    tracer.instant("tick", "checkpoint", 2.0, tid="coord")
    tracer.counter("l0", "lsm", 3.0, 4, tid="store")
    assert len(tracer) == 3
    spans = tracer.select(ph="X")
    assert spans[0].name == "work" and spans[0].end == pytest.approx(1.5)
    assert spans[0].args == {"foo": 1}
    assert tracer.select(cat="lsm")[0].args == {"value": 4}


def test_kernel_category_is_opt_in():
    tracer = Tracer()
    assert not tracer.wants("kernel")
    assert tracer.wants("flush")
    opted = Tracer(categories={"kernel", "flush"})
    assert opted.wants("kernel")
    restricted = Tracer(categories={"flush"})
    assert restricted.wants("flush")
    assert not restricted.wants("compaction")
    restricted.instant("x", "compaction", 0.0)
    assert len(restricted) == 0


def test_null_tracer_is_inert_singleton():
    assert isinstance(NULL_TRACER, NullTracer)
    assert not NULL_TRACER.enabled
    NULL_TRACER.complete("a", "flush", 0.0, 1.0)
    NULL_TRACER.instant("b", "flush", 0.0)
    NULL_TRACER.counter("c", "flush", 0.0, 1)
    assert len(NULL_TRACER) == 0
    assert ensure_tracer(None) is NULL_TRACER
    tracer = Tracer()
    assert ensure_tracer(tracer) is tracer


def test_simulator_defaults_to_null_tracer():
    sim = Simulator(seed=0)
    assert sim.tracer is NULL_TRACER


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    tracer = traced_pool_run()
    assert len(tracer) > 0
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["ph"] == "M"
    assert header["args"]["schema"] == TRACE_SCHEMA_VERSION
    events = read_jsonl(path)
    assert [e.to_dict() for e in events] == [e.to_dict() for e in tracer]


def test_read_jsonl_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps({"name": "trace", "ph": "M",
                    "args": {"format": "repro.trace", "schema": 999}}) + "\n"
    )
    with pytest.raises(ValueError):
        read_jsonl(path)


def test_chrome_trace_structure(tmp_path):
    tracer = traced_pool_run()
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert {e["ph"] for e in events} >= {"X", "M"}
    # integer thread ids plus thread_name metadata naming each track
    named = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert "node0/flush" in named
    span = next(e for e in events if e["ph"] == "X")
    assert isinstance(span["tid"], int)
    # timestamps in microseconds
    assert span["dur"] == pytest.approx(2.0 * 1e6)


def test_trace_event_dict_round_trip():
    event = TraceEvent("n", "flush", "X", 1.0, 2.0, "t", {"k": 1})
    assert TraceEvent.from_dict(event.to_dict()).to_dict() == event.to_dict()


# ----------------------------------------------------------------------
# schema stability (golden fixture)
# ----------------------------------------------------------------------


def test_golden_trace_schema_stable(tmp_path):
    """The JSONL byte stream of a fixed run must not drift.

    If this fails because the schema changed deliberately, bump
    TRACE_SCHEMA_VERSION and regenerate the fixture:

        PYTHONPATH=src python tests/make_trace_golden.py
    """
    tracer = traced_pool_run()
    path = tmp_path / "golden.jsonl"
    tracer.write_jsonl(path)
    assert path.read_text() == GOLDEN.read_text()


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_traffic():
    from repro.api import ExperimentSettings, run_scenario

    settings = ExperimentSettings(duration_s=40.0, warmup_s=16.0, trace=True)
    return settings, run_scenario("baseline_traffic", settings=settings)


def test_traffic_run_produces_span_categories(traced_traffic):
    _, result = traced_traffic
    events = list(result.tracer)
    cats = {(e.cat, e.ph) for e in events}
    assert ("flush", "X") in cats
    assert ("checkpoint", "i") in cats
    assert ("lsm", "C") in cats


def test_tracing_does_not_change_results(traced_traffic):
    """The disabled-tracer acceptance criterion, but stronger: the
    traced and untraced runs must be *identical*, not just within 3%."""
    from repro.api import ExperimentSettings, run_scenario

    settings, traced = traced_traffic
    untraced = run_scenario(
        "baseline_traffic",
        settings=ExperimentSettings(duration_s=40.0, warmup_s=16.0),
    )
    assert untraced.tail_summary(start=16.0) == traced.tail_summary(start=16.0)


def test_summary_carries_trace_events(traced_traffic):
    from repro.api import RunSummary, summarize_run

    settings, result = traced_traffic
    summary = summarize_run(result, settings)
    assert summary.trace_schema == TRACE_SCHEMA_VERSION
    assert len(summary.trace_events) == len(list(result.tracer))
    # and survives the cache's JSON round trip
    revived = RunSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
    assert revived.trace_events == summary.trace_events


def test_export_trace_adds_derived_tracks(traced_traffic, tmp_path):
    _, result = traced_traffic
    path = tmp_path / "run.jsonl"
    result.export_trace(path)
    events = read_jsonl(path)
    cats = {e.cat for e in events}
    assert "cpu" in cats and "latency" in cats
    with pytest.raises(ValueError):
        result.export_trace(tmp_path / "x", format="protobuf")

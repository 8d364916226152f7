"""Wait-for graph extraction, catalog diff and the shadow-sync audit."""

import json

import pytest

from repro.analysis.millibottleneck import SpikeAttribution, detect
from repro.sanitize.syncgraph import (
    SYNC_CATALOG,
    SyncEdge,
    analyze_sync,
    attribute_spikes,
    diff_against_catalog,
    extract_wait_graph,
    sync_windows,
)
from repro.trace import TraceEvent


def _ev(name, cat, ph, ts, dur=0.0, tid="", **args):
    return TraceEvent(name, cat, ph, ts, dur, tid, args)


@pytest.fixture
def synthetic_trace():
    return [
        # Checkpoint barrier 10..15.
        _ev("checkpoint-1", "checkpoint", "X", 10.0, 5.0, "coordinator",
            checkpoint_id=1),
        # Pool queueing: flush job waited 1.5s, compaction 2.0s.
        _ev("queued:flush-s0", "pool", "X", 2.0, 1.5, "node0-flush",
            kind="flush"),
        _ev("queued:compact-s0", "pool", "X", 3.0, 2.0, "node0-compaction",
            kind="compaction"),
        # Checkpoint-reason flush inside the barrier; memtable flush outside.
        _ev("flush:s0", "flush", "X", 10.5, 2.0, "node0-flush",
            stage="s0", reason="checkpoint"),
        _ev("flush:s1", "flush", "X", 1.0, 0.5, "node0-flush",
            stage="s1", reason="memtable-full"),
        # Compaction overlapping the open barrier by 3s: THE paper edge.
        _ev("compact:s0", "compaction", "X", 12.0, 4.0, "node0-compaction",
            stage="s0"),
        # Pause..resume stall on a pool.
        _ev("pause:node0-flush", "pool", "i", 20.0, tid="node0-flush"),
        _ev("resume:node0-flush", "pool", "i", 22.5, tid="node0-flush"),
        # Fence window on node1.
        _ev("node-fence", "cluster", "i", 30.0, tid="node1"),
        _ev("node-revive", "cluster", "i", 33.0, tid="node1"),
    ]


def test_extract_wait_graph_covers_every_edge_kind(synthetic_trace):
    edges = {e.kind: e for e in extract_wait_graph(synthetic_trace)}
    assert edges["checkpoint-barrier"].blocked_s == pytest.approx(5.0)
    assert edges["pool-stall"].blocked_s == pytest.approx(2.5)
    assert edges["migration-fence"].blocked_s == pytest.approx(3.0)
    assert edges["migration-fence"].src == "node:node1"
    shadow = edges["compaction-during-checkpoint"]
    assert shadow.blocked_s == pytest.approx(3.0)
    assert shadow.windows == [(12.0, 15.0)]
    queue_edges = [
        e for e in extract_wait_graph(synthetic_trace) if e.kind == "pool-queue"
    ]
    assert {e.src for e in queue_edges} == {"job:flush", "job:compaction"}


def test_flush_block_splits_by_reason(synthetic_trace):
    edges = extract_wait_graph(synthetic_trace)
    flushes = {(e.src, e.dst): e for e in edges if e.kind == "flush-block"}
    assert flushes[("stage:s0", "checkpoint")].blocked_s == pytest.approx(2.0)
    assert flushes[("stage:s1", "memtable")].blocked_s == pytest.approx(0.5)


def test_dangling_pause_blocks_to_end_of_trace():
    events = [
        _ev("pause:p", "pool", "i", 5.0, tid="p"),
        _ev("work", "flush", "X", 8.0, 4.0, "p", stage="s0"),
    ]
    (stall,) = [
        e for e in extract_wait_graph(events) if e.kind == "pool-stall"
    ]
    assert stall.windows == [(5.0, 12.0)]


def test_catalog_diff_declares_everything_in_the_full_catalog(synthetic_trace):
    edges, shadows = diff_against_catalog(extract_wait_graph(synthetic_trace))
    assert shadows == []
    declared = {e.kind: e.declared_by for e in edges}
    assert declared["compaction-during-checkpoint"] == (
        "shadow.compaction-checkpoint"
    )
    assert declared["checkpoint-barrier"] == "checkpoint.trigger"
    assert declared["pool-queue"] == "threadpool.submit"


def test_undeclared_edge_is_shadow(synthetic_trace):
    stripped = tuple(p for p in SYNC_CATALOG if p.kind != "shadow")
    edges, shadows = diff_against_catalog(
        extract_wait_graph(synthetic_trace), catalog=stripped
    )
    assert [e.kind for e in shadows] == ["compaction-during-checkpoint"]
    assert all(e.shadow for e in shadows)


def test_attribute_spikes_sums_window_overlap():
    edge = SyncEdge(kind="k", src="a", dst="b",
                    windows=[(0.0, 10.0), (20.0, 21.0)])
    attribute_spikes([edge], [(5.0, 7.0), (9.0, 12.0), (20.5, 30.0)])
    assert edge.spike_overlap_s == pytest.approx(2.0 + 1.0 + 0.5)


def test_sync_edge_round_trips_through_json(synthetic_trace):
    edges, _ = diff_against_catalog(extract_wait_graph(synthetic_trace))
    for edge in edges:
        back = SyncEdge.from_dict(json.loads(json.dumps(edge.to_dict())))
        assert back == edge


def test_detector_labels_spikes_with_sync_edges():
    times = [i * 0.5 for i in range(40)]
    p999 = [0.1] * 40
    p999[20] = 5.0  # spike at t=10
    windows = [("checkpoint-barrier", 9.5, 10.5), ("pool-stall", 50.0, 51.0)]
    report = detect(times, p999, windows={"sync": windows})
    (spike,) = report.spikes
    assert spike.sync == ["checkpoint-barrier"]
    # Old cached dicts without the sync field still load.
    legacy = spike.to_dict()
    legacy.pop("sync")
    assert SpikeAttribution.from_dict(legacy).sync == []


def test_sync_windows_feed_shape(synthetic_trace):
    edges = extract_wait_graph(synthetic_trace)
    labeled = sync_windows(edges)
    assert all(len(w) == 3 for w in labeled)
    starts = [w[1] for w in labeled]
    assert starts == sorted(starts)
    assert sum(1 for name, _, _ in labeled if name == "flush-block") == 2


def test_analyze_sync_on_prerecorded_events(synthetic_trace):
    report = analyze_sync(events=synthetic_trace, static=False)
    assert report.ok
    assert report.shadow_edges == []
    assert report.blocked_s > 0
    data = report.to_dict()
    assert data["ok"] is True
    assert data["lint"]["count"] == 0
    assert len(data["catalog"]) == len(SYNC_CATALOG)
    assert json.loads(json.dumps(data)) == data


def test_audit_surfaces_the_paper_edge_on_a_live_baseline_run():
    """Acceptance: on a traced baseline run the audit must surface the
    flush/compaction <-> checkpoint blocking edges with nonzero blocked
    time and an empty static-vs-dynamic diff."""
    report = analyze_sync(
        scenario="baseline_traffic",
        duration_s=40.0,
        warmup_s=5.0,
        seed=7,
        static=False,
    )
    kinds = {e.kind: e for e in report.edges}
    assert report.shadow_edges == []
    assert kinds["compaction-during-checkpoint"].blocked_s > 0
    assert kinds["checkpoint-barrier"].count > 0
    flush_block = [
        e for e in report.edges
        if e.kind == "flush-block" and e.dst == "checkpoint"
    ]
    assert flush_block and all(e.blocked_s > 0 for e in flush_block)
    rendered = report.render()
    assert "compaction-during-checkpoint" in rendered
    assert "clean" in rendered

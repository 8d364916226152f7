"""JSON round trips of every class that owns a ``to_dict``/``from_dict``
pair."""

import dataclasses
import importlib
import inspect
import json
import pkgutil

import pytest

import repro
from repro.analysis.millibottleneck import MillibottleneckReport, SpikeAttribution
from repro.analysis.overlap import OverlapReport
from repro.cluster.spec import ClusterSpec
from repro.core.autotuner import TunedConfig, TuneReport
from repro.core.mitigation import MitigationPlan
from repro.experiments.runner import ExperimentSettings
from repro.experiments.summary import RunSummary
from repro.faults.invariants import InvariantViolation
from repro.faults.plan import FaultPlan, FaultSpec
from repro.metrics.collector import CheckpointStats
from repro.resilience.config import ResilienceConfig
from repro.sanitize import SanitizeReport
from repro.sanitize.ordering import OrderingCheck, OrderingReport
from repro.sanitize.racedetect import RaceDivergence, RaceReport
from repro.sanitize.syncgraph.waitgraph import SyncEdge
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.trace import TraceEvent


def json_round(obj):
    """The exact transformation a cache/file round trip applies."""
    return json.loads(json.dumps(obj.to_dict()))


def _checkpoint_stats():
    stats = CheckpointStats(3, 24.0)
    stats.flush_count = {"s0": 64, "s1": 64}
    stats.flush_ms = {"s0": 81.5}
    stats.compaction_count = {"s0": 16}
    stats.compaction_ms = {"s0": 412.0}
    stats.compaction_input_mb = 512.5
    return stats


def _overlap_report():
    report = OverlapReport((40.0, 200.0))
    report.flush_compaction_overlap_s = 12.5
    report.flush_busy_s = 30.0
    report.compaction_busy_s = 50.0
    report.peak_flush_concurrency = 128
    report.peak_compaction_concurrency = 64
    return report


def _spike():
    return SpikeAttribution(
        peak_time=48.2, peak_s=1.7, window=(40.0, 50.5), flush_spans=128,
        compaction_spans=17, overlap_s=0.4, cpu_saturated_fraction=0.9,
        checkpoint_index=5, stages=["s0", "s1"], attributed=True,
        classification="statistical", faults=["slow_disk@node0"],
        resilience=["degraded"], policies=["reference"],
        cluster=["scale-in:-4"], sync=["checkpoint-barrier"],
    )


def _workload():
    return WorkloadSpec(arrival="diurnal", rate=5000.0, period_s=120.0,
                        trough_factor=0.5, bursts=((10.0, 5.0, 2.0),),
                        steps_per_period=12, skew=((30.0, 0.6, 2),))


def _fault_plan():
    return FaultPlan(name="p", faults=(
        FaultSpec(kind="node_join", at_s=20.0, factor=2.0),
        FaultSpec(kind="worker_crash", at_s=30.0, duration_s=2.0, node=1),
        FaultSpec(kind="slow_disk", at_s=40.0, duration_s=3.0, factor=0.25),
    ))


def _cluster():
    return ClusterSpec(migration_bandwidth_mb_s=40.0, transfer_deadline_s=30.0)


def _race_report():
    return RaceReport(
        label="planted", duration_s=2.0, window_s=1.0, windows=2,
        events_fired=(40, 41), divergent_windows=1,
        divergences=[RaceDivergence(
            window_index=1, window_start=1.0, window_end=2.0,
            baseline_digest="aa", perturbed_digest="bb",
            baseline_event={"name": "add", "time": 1.5, "priority": 1},
            perturbed_event={"name": "mul", "time": 1.5, "priority": 1},
            event_index=3,
            state_delta={"value": {"baseline": 20, "perturbed": 10}},
        )],
    )


def _ordering_report():
    return OrderingReport(checks=[
        OrderingCheck(name="cache-key-stability", ok=True, perturbations=8),
        OrderingCheck(name="summary-order-independence", ok=False,
                      perturbations=4, detail="key order leaked"),
    ])


def _run_summary():
    return RunSummary(
        kind="wordcount", label="x", scenario="baseline_wordcount", seed=3,
        duration_s=80.0, warmup_s=16.0, tails={"p999": 1.5},
        coarse_times=[16.0, 16.5], coarse_p999=[0.2, 1.5],
        checkpoint_stats=[_checkpoint_stats().to_dict()],
        per_checkpoint_compactions={0: {"s0": 3}},
        overlap=_overlap_report().to_dict(), activities={"flushes": 12.0},
        trace_schema=1,
        trace_events=[{"name": "e", "cat": "flush", "ph": "i", "ts": 1.0,
                       "dur": 0.0, "tid": "", "args": {}}],
        fault_plan=_fault_plan().to_dict(),
        invariant_violations=[{"invariant": "exactly_once", "time": 9.0,
                               "message": "m", "details": {}}],
        resilience={"trips": 1}, cluster={"joins": 2},
    )


#: One populated instance per codec class, keyed by class name.
SAMPLES = {
    "CheckpointStats": _checkpoint_stats,
    "ClusterSpec": _cluster,
    "ExperimentSettings": lambda: ExperimentSettings(
        duration_s=80.0, warmup_s=20.0, seed=9, fine_window_s=0.1,
        coarse_window_s=1.0, trace=True),
    "FaultPlan": _fault_plan,
    "InvariantViolation": lambda: InvariantViolation(
        invariant="exactly_once", time=12.5, message="duplicate commit",
        details={"offset": 42, "instances": ["s0#1"]}),
    "MillibottleneckReport": lambda: MillibottleneckReport(
        window_s=0.05, threshold_s=0.8, spikes=[_spike()],
        saturation_windows=[(47.0, 49.0)], alignment=0.75,
        classification="statistical"),
    "OrderingReport": _ordering_report,
    "OverlapReport": _overlap_report,
    "RaceReport": _race_report,
    "ResilienceConfig": lambda: ResilienceConfig(
        compaction_threads_degraded=2, checkpoint_stretch=3.0),
    "RunSummary": _run_summary,
    "SanitizeReport": lambda: SanitizeReport(
        kind="traffic", duration_s=16.0, window_s=2.0, seed=4,
        race=_race_report(), ordering=_ordering_report()),
    "ScenarioSpec": lambda: ScenarioSpec(
        name="custom", app="join", description="d", workload=_workload(),
        interval_s=4.0, initial_l0="staggered", storage="nvme",
        mitigation=MitigationPlan(compaction_delay_s=1.0, flush_threads=8),
        faults=_fault_plan(), resilience=True, tenants=2, window_s=20.0,
        cluster=_cluster()),
    "SpikeAttribution": _spike,
    "SyncEdge": lambda: SyncEdge(
        kind="checkpoint-barrier", src="stage:agg", dst="checkpoint",
        blocked_s=2.5, count=7, windows=[(1.0, 1.5), (9.0, 11.0)],
        declared_by="checkpoint-barrier", spike_overlap_s=0.5),
    "TraceEvent": lambda: TraceEvent("flush", "lsm", "X", 12.0, dur=0.3,
                                     tid="node0-flush", args={"mb": 64}),
    "TuneReport": lambda: TuneReport(
        scenario="baseline_traffic", smoke=True, seed=2, duration_s=60.0,
        warmup_s=20.0,
        best=TunedConfig(label="flush_first/f8", policy="flush_first",
                         mitigation={"flush_threads": 8}, p999=0.4,
                         knee_compaction_threads=6.0, version="5.0.0"),
        rows=[{"label": "baseline", "p999": 1.2}], version="5.0.0"),
    "WorkloadSpec": _workload,
}


def _codec_classes():
    """Every ``repro`` class with both a ``to_dict`` and a ``from_dict``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and callable(getattr(cls, "to_dict", None))
                    and callable(getattr(cls, "from_dict", None))):
                found[cls.__name__] = cls
    return found


def test_every_codec_class_has_a_sample():
    """A new ``to_dict``/``from_dict`` class must add a sample above."""
    assert sorted(_codec_classes()) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_codec_class_round_trips_through_json(name):
    sample = SAMPLES[name]()
    assert type(sample).__name__ == name
    revived = type(sample).from_dict(json_round(sample))
    assert type(revived) is type(sample)
    assert revived.to_dict() == sample.to_dict()
    if dataclasses.is_dataclass(sample):
        assert revived == sample


def test_checkpoint_stats_round_trip():
    stats = _checkpoint_stats()
    revived = CheckpointStats.from_dict(json_round(stats))
    assert revived.to_dict() == stats.to_dict()


def test_overlap_report_round_trip():
    report = _overlap_report()
    revived = OverlapReport.from_dict(json_round(report))
    assert revived.to_dict() == report.to_dict()
    # overlap_fraction is derived, not stored state
    assert revived.overlap_fraction == pytest.approx(12.5 / 50.0)


def test_experiment_settings_round_trip():
    settings = ExperimentSettings(duration_s=80.0, seed=9, trace=True)
    assert ExperimentSettings.from_dict(settings.to_dict()) == settings
    assert ExperimentSettings.from_dict(json_round(settings)) == settings


def test_run_summary_round_trip():
    summary = _run_summary()
    revived = RunSummary.from_dict(json_round(summary))
    assert revived == summary
    # JSON stringifies the int keys; from_dict must restore them
    assert 0 in revived.per_checkpoint_compactions

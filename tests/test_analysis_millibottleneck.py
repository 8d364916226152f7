"""Tests for the millibottleneck detector (repro.analysis.millibottleneck)."""

import numpy as np
import pytest

from repro.analysis.millibottleneck import (
    PAD_S,
    MillibottleneckReport,
    SpikeAttribution,
    analyze_result,
    analyze_trace,
    default_threshold,
    detect,
)
from repro.errors import AnalysisError
from repro.metrics.spans import ActivitySpan, SpanLog
from repro.metrics.timeline import StepSeries


def synthetic_timeline(spike_times, duration=100.0, dt=0.05, base=0.3, peak=2.0):
    """A flat p99.9 timeline with 1-second excursions at *spike_times*."""
    times = np.arange(0.0, duration, dt)
    values = np.full(len(times), base)
    for t0 in spike_times:
        values[(times >= t0) & (times < t0 + 1.0)] = peak
    return times, values


def overlap_spans(burst_times, stages=("s0",)):
    """Flush + compaction spans overlapping around each burst time."""
    log = SpanLog()
    for t0 in burst_times:
        for stage in stages:
            log.add(ActivitySpan("flush", f"f@{t0}", stage, 0, "node0",
                                 t0 - 0.4, t0 + 0.1, 1000))
            log.add(ActivitySpan("compaction", f"c@{t0}", stage, 0, "node0",
                                 t0 - 0.2, t0 + 0.6, 5000))
    return log


# ----------------------------------------------------------------------
# core detector on synthetic input
# ----------------------------------------------------------------------


def test_detector_recall_on_injected_overlaps():
    """Every injected spike backed by an overlap must be attributed."""
    spikes_at = [10.0, 30.0, 50.0, 70.0, 90.0]
    times, values = synthetic_timeline(spikes_at)
    report = detect(times, values, spans=overlap_spans(spikes_at))
    assert report.spike_count == len(spikes_at)
    assert report.attributed_fraction >= 0.9
    for spike, expected in zip(report.spikes, spikes_at):
        assert spike.peak_time == pytest.approx(expected, abs=1.0)
        assert spike.flush_spans > 0 and spike.compaction_spans > 0
        assert spike.overlap_s > 0


def test_spike_without_background_work_is_unattributed():
    times, values = synthetic_timeline([20.0, 60.0])
    report = detect(times, values, spans=overlap_spans([20.0]))
    attributed = {round(s.peak_time) for s in report.spikes if s.attributed}
    assert 20 in attributed
    assert 60 not in attributed
    assert report.attributed_count == 1


def test_cpu_gate_blocks_unsaturated_windows():
    spikes_at = [20.0]
    times, values = synthetic_timeline(spikes_at, duration=40.0)
    spans = overlap_spans(spikes_at)
    idle = StepSeries([(0.0, 1.0)])  # 1 of 16 cores busy: never saturated
    report = detect(times, values, spans=spans, cpu=idle, capacity=16.0)
    assert report.attributed_count == 0
    hot = StepSeries([(0.0, 1.0), (19.5, 16.0), (21.0, 1.0)])
    report = detect(times, values, spans=spans, cpu=hot, capacity=16.0)
    assert report.attributed_count == 1
    assert report.spikes[0].cpu_saturated_fraction > 0
    assert report.saturation_windows  # the hot interval is flagged


def test_scheduled_vs_statistical_classification():
    spikes_at = [10.0, 42.0]
    times, values = synthetic_timeline(spikes_at, duration=60.0)
    checkpoints = [8.0, 16.0, 24.0, 32.0, 40.0, 48.0]
    # s0 bursting under the spikes, s1 alone at the third checkpoint
    # with no spike there: the stages take turns -> scheduled
    spans = overlap_spans(spikes_at, ("s0",))
    spans.add(ActivitySpan("compaction", "c@24", "s1", 0, "node0",
                           24.2, 25.0, 5000))
    single = detect(times, values, spans=spans, checkpoint_times=checkpoints)
    assert single.classification == "scheduled"
    assert single.alignment == pytest.approx(0.70, abs=0.01)
    # both stages bursting together -> statistical
    both = detect(times, values, spans=overlap_spans(spikes_at, ("s0", "s1")),
                  checkpoint_times=checkpoints)
    assert both.classification == "statistical"
    assert both.alignment == pytest.approx(1.0)
    assert all(s.checkpoint_index in (0, 4) for s in both.spikes)


def burst_scene(stages_at, spiking=True):
    """Detector inputs for a run whose flush + compaction bursts
    saturate a 16-core node for 2.5 s; *stages_at* maps each burst
    time to the stages compacting in it, checkpoints fall every 8 s
    and (when *spiking*) the p99.9 sits at 2 s for 3 s per burst."""
    spans = SpanLog()
    cpu = [(0.0, 10.0)]
    times = np.arange(0.0, 96.0, 0.25)
    latency = np.full(len(times), 0.3)
    for t0, stages in stages_at.items():
        for stage in stages:
            for i in range(8):
                spans.add(ActivitySpan("flush", f"f{i}", stage, i, "n0",
                                       t0, t0 + 0.4))
                spans.add(ActivitySpan("compaction", f"c{i}", stage, i, "n0",
                                       t0 + 0.1, t0 + 2.5))
        cpu += [(t0, 16.0), (t0 + 2.5, 10.0)]
        if spiking:
            latency[(times >= t0) & (times < t0 + 3.0)] = 2.0
    checkpoints = [8.0 * k for k in range(12)]
    return dict(
        times=times, p999=latency, spans=spans, cpu=StepSeries(cpu),
        capacity=16.0, checkpoint_times=checkpoints, threshold=1.0,
    )


@pytest.mark.parametrize("stages_at, verdict", [
    ({32.0: ("s0", "s1"), 64.0: ("s0", "s1")}, "statistical"),
    ({32.0: ("s0",), 64.0: ("s1",)}, "scheduled"),
], ids=["aligned-stages", "alternating-stages"])
def test_burst_scenes_read_as_their_kind_of_shadowsync(stages_at, verdict):
    """Each spike sits on a millibottleneck with flush/compaction
    overlap, 32 s apart; stages bursting in the same checkpoint period
    read statistical, stages taking turns read scheduled."""
    report = detect(**burst_scene(stages_at))
    assert report.classification == verdict
    assert report.spike_count == 2 and report.attributed_fraction == 1.0
    for spike in report.spikes:
        assert spike.overlap_s > 0 and spike.cpu_saturated_fraction > 0
    first, second = report.spikes
    assert second.peak_time - first.peak_time == pytest.approx(32.0, abs=1.0)


def test_bursts_without_latency_spikes_read_none():
    report = detect(**burst_scene({32.0: ("s0", "s1"), 64.0: ("s0", "s1")},
                                  spiking=False))
    assert report.spike_count == 0
    assert report.classification == "none"


def test_detect_rejects_a_malformed_timeline():
    """An empty timeline is an empty report; unequal arrays are an error."""
    assert detect([], []).classification == "none"
    with pytest.raises(AnalysisError):
        detect(np.arange(0.0, 5.0, 0.05), np.full(3, 0.3))


# ----------------------------------------------------------------------
# the causal window: a spike's evidence reaches back to its checkpoint
# ----------------------------------------------------------------------

#: A checkpoint-time flush/compaction overlap, and a p99.9 excursion
#: whose onset trails it by 2.5 s — the drain-time lag of a real run.
CAUSE_AT, ONSET = 40.0, 42.5
EVERY_8_S = [8.0 * k for k in range(12)]


def test_overlap_at_the_triggering_checkpoint_is_attributed():
    times, values = synthetic_timeline([ONSET], duration=60.0)
    spans = overlap_spans([CAUSE_AT])
    (spike,) = detect(times, values, spans=spans,
                      checkpoint_times=EVERY_8_S).spikes
    assert spike.attributed
    assert spike.window[0] == pytest.approx(CAUSE_AT)
    assert spike.flush_spans == 1 and spike.compaction_spans == 1
    # without checkpoints the window is the spike's own padded region
    (spike,) = detect(times, values, spans=spans).spikes
    assert not spike.attributed
    assert spike.window[0] == pytest.approx(ONSET - PAD_S)


def test_checkpoint_beyond_one_spacing_before_onset_is_not_used():
    times, values = synthetic_timeline([ONSET], duration=60.0)
    early = 32.0  # last of the 8 s checkpoints, 10.5 s before onset
    (spike,) = detect(times, values, spans=overlap_spans([early]),
                      checkpoint_times=[c for c in EVERY_8_S if c <= early]).spikes
    assert not spike.attributed
    assert spike.window[0] == pytest.approx(ONSET - PAD_S)


def test_saturation_only_in_the_look_back_leaves_the_spike_unattributed():
    """The cause may precede the spike, the millibottleneck may not."""
    times, values = synthetic_timeline([ONSET], duration=60.0)
    spans = overlap_spans([CAUSE_AT])
    before = StepSeries([(0.0, 1.0), (CAUSE_AT, 16.0), (CAUSE_AT + 1.0, 1.0)])
    (spike,) = detect(times, values, spans=spans, cpu=before, capacity=16.0,
                      checkpoint_times=EVERY_8_S).spikes
    assert spike.overlap_s > 0
    assert spike.cpu_saturated_fraction == 0.0
    assert not spike.attributed
    during = StepSeries([(0.0, 1.0), (ONSET, 16.0), (ONSET + 1.0, 1.0)])
    (spike,) = detect(times, values, spans=spans, cpu=during, capacity=16.0,
                      checkpoint_times=EVERY_8_S).spikes
    assert spike.attributed


def test_default_threshold_rule():
    assert default_threshold([]) == 0.8
    assert default_threshold([0.1] * 10) == 0.8  # floor dominates
    assert default_threshold([1.0] * 10) == pytest.approx(2.5)


def test_report_dict_round_trip():
    times, values = synthetic_timeline([10.0], duration=20.0)
    report = detect(times, values, spans=overlap_spans([10.0]))
    revived = MillibottleneckReport.from_dict(report.to_dict())
    assert revived.to_dict() == report.to_dict()
    assert isinstance(revived.spikes[0], SpikeAttribution)
    assert isinstance(revived.spikes[0].window, tuple)


# ----------------------------------------------------------------------
# acceptance: the paper's every-4th-checkpoint cadence
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig8_result():
    from repro.api import ExperimentSettings, run_scenario

    settings = ExperimentSettings(duration_s=104.0, warmup_s=32.0, trace=True)
    return run_scenario("baseline_traffic", settings=settings)


def test_attributes_every_4th_checkpoint_spikes(fig8_result):
    """≥90% of the aligned baseline's p99.9 spikes must be attributed
    to flush+compaction overlap windows (the ISSUE acceptance bar)."""
    report = analyze_result(fig8_result, start=32.0)
    assert report.spike_count >= 2
    assert report.attributed_fraction >= 0.9
    # spikes land on the every-4th-checkpoint cadence (32 s period)
    gaps = np.diff([s.peak_time for s in report.spikes])
    assert np.allclose(gaps, 32.0, atol=4.0)
    for spike in report.spikes:
        assert spike.checkpoint_index % 4 == 0
        assert spike.cpu_saturated_fraction > 0
    assert report.saturation_windows


@pytest.mark.parametrize("experiment", ["fig8", "fig1"])
def test_trace_path_reads_what_the_live_detector_reads(experiment, fig8_result):
    """The trace ``repro trace`` writes — a summary's events plus its
    latency track — yields the live report without CPU gating, spike
    by spike."""
    from repro.api import ExperimentSettings, run_scenario, summarize_run
    from repro.experiments.figures import EXPERIMENTS

    settings = ExperimentSettings(duration_s=104.0, warmup_s=32.0, trace=True)
    result = (fig8_result if experiment == "fig8"
              else run_scenario(EXPERIMENTS[experiment].scenario, settings=settings))
    live = analyze_result(result, start=32.0, cpu=None, capacity=None)
    traced = analyze_trace(summarize_run(result, settings).to_tracer().events)
    assert traced.spike_count == live.spike_count >= 3
    for ours, theirs in zip(traced.spikes, live.spikes):
        assert ours.to_dict() == theirs.to_dict()
    assert traced.alignment == live.alignment
    assert traced.classification == live.classification


def test_trace_path_requires_latency_track():
    from repro.errors import AnalysisError

    with pytest.raises(AnalysisError):
        analyze_trace([])

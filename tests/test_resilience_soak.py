"""Tests for the chaos-soak harness (repro.resilience.soak), the
cache-key coverage of the resilience field, and the millibottleneck
detector's resilience-window attribution."""

import json

import numpy as np
import pytest

from repro.analysis.millibottleneck import SpikeAttribution, detect
from repro.errors import OverloadError
from repro.resilience import ResilienceConfig
from repro.resilience.soak import SoakReport, run_soak

SHORT_PLAN = {
    "name": "soak-short",
    "faults": [
        {"kind": "flush_stall", "at_s": 24.0, "duration_s": 6.0, "node": 0},
    ],
}


def short_soak(**overrides):
    kwargs = dict(
        kind="traffic",
        seeds=(5,),
        duration_s=60.0,
        warmup_s=10.0,
        faults=SHORT_PLAN,
        jobs=1,
        cache=False,
    )
    kwargs.update(overrides)
    return run_soak(**kwargs)


# ----------------------------------------------------------------------
# run_soak end to end
# ----------------------------------------------------------------------


def test_short_soak_passes_and_audits_each_window():
    report = short_soak()
    assert report.ok
    assert report.require_pass() is report
    assert report.failures == []
    (run,) = report.runs
    assert run["seed"] == 5
    assert run["ok"] and run["failures"] == []
    (window,) = run["windows"]
    assert window["label"] == "flush_stall"
    assert window["start"] == pytest.approx(24.0)
    assert window["end"] == pytest.approx(30.0)
    assert window["recovered_at"] is not None
    assert 30.0 < window["recovered_at"] <= window["budget_until"]
    assert run["baseline_p999_s"] > 0.0
    assert run["invariant_violations"] == 0
    # the whole report serializes (what `repro soak --json` emits)
    assert json.loads(json.dumps(report.to_dict()))["runs"][0]["seed"] == 5


def test_soak_is_deterministic_run_to_run():
    first = short_soak()
    second = short_soak()
    assert first.to_dict() == second.to_dict()


def test_soak_report_aggregates_failures_and_raises():
    report = SoakReport(runs=[
        {"seed": 1, "ok": False, "failures": ["queue blow-up"]},
        {"seed": 2, "ok": True, "failures": []},
    ])
    assert not report.ok
    assert report.failures == ["seed 1: queue blow-up"]
    with pytest.raises(OverloadError, match="queue blow-up"):
        report.require_pass()


def test_unguarded_soak_says_the_queue_bound_is_unchecked():
    """Only the resilience guard samples the peak backlog.  Seed 6's
    random plan breaks the 300 000-message bound with the layer on; with
    it off the same run must not claim "queues bounded"."""
    guarded, unguarded = (
        run_soak(kind="baseline_traffic", seeds=(6,), random_faults=True,
                 resilience=resilience, jobs=1, cache=False)
        for resilience in (True, False)
    )
    assert any("queue blow-up" in f for f in guarded.failures)
    assert "queues" not in guarded.runs[0]
    (run,) = unguarded.runs
    assert run["queues"] == "unchecked"
    text = unguarded.render()
    assert "queues unchecked" in text
    assert "queues bounded" not in text


def test_soak_without_a_pre_fault_sample_says_recovery_is_unchecked():
    """Seed 2's random plan opens its only window at 3.9 s, inside the
    warm-up: no coarse sample precedes it, the baseline is 0.0, and the
    window "recovers" at its first sample without being compared to
    anything.  The verdict must say so instead of "all windows
    recovered"."""
    report = short_soak(kind="baseline_traffic", seeds=(2,), duration_s=40.0,
                        random_faults=True)
    assert report.ok
    (run,) = report.runs
    assert run["baseline_p999_s"] == 0.0
    assert run["windows"] and run["windows"][0]["start"] < 10.0
    assert run["recovery"] == "unchecked"
    text = report.render()
    assert "recovery unchecked" in text
    assert "all windows recovered" not in text
    # a soak with a pre-fault sample checks its windows
    checked = short_soak()
    assert "recovery" not in checked.runs[0]
    assert "all windows recovered" in checked.render()


def test_empty_soak_report_is_vacuously_ok():
    assert SoakReport().ok
    assert SoakReport().require_pass().runs == []


# ----------------------------------------------------------------------
# cache keys cover the resilience field
# ----------------------------------------------------------------------


def test_cache_key_distinguishes_resilience_configs():
    from repro.experiments.parallel import RunSpec, spec_cache_key
    from repro.experiments.runner import ExperimentSettings
    from repro.scenarios import scenario

    def spec(resilience):
        return RunSpec(
            scenario=scenario("baseline_traffic", resilience=resilience),
            settings=ExperimentSettings(duration_s=30.0, warmup_s=5.0, seed=1),
        )

    unguarded = spec_cache_key(spec(None))
    default = spec_cache_key(spec(True))
    custom = spec_cache_key(spec(ResilienceConfig(checkpoint_stretch=3.0)))
    assert len({unguarded, default, custom}) == 3
    # True coerces to the default config: same content, same address
    assert default == spec_cache_key(spec(ResilienceConfig()))


# ----------------------------------------------------------------------
# millibottleneck: resilience-window attribution
# ----------------------------------------------------------------------


def synthetic_timeline(spike_times, duration=100.0, dt=0.05, base=0.3,
                       peak=2.0):
    times = np.arange(0.0, duration, dt)
    values = np.full(len(times), base)
    for t0 in spike_times:
        values[(times >= t0) & (times < t0 + 1.0)] = peak
    return times, values


def test_detect_labels_spikes_inside_resilience_windows():
    times, values = synthetic_timeline([20.0, 60.0])
    report = detect(
        times, values,
        windows={"resilience": [("degraded", 15.0, 25.0),
                                ("load-shed", 18.0, 23.0)]},
    )
    assert report.spike_count == 2
    guarded, bare = report.spikes
    assert guarded.resilience == ["degraded", "load-shed"]
    assert bare.resilience == []


def test_spike_attribution_from_dict_backfills_resilience():
    times, values = synthetic_timeline([20.0])
    (spike,) = detect(
        times, values, windows={"resilience": [("degraded", 15.0, 25.0)]}
    ).spikes
    data = spike.to_dict()
    assert data["resilience"] == ["degraded"]
    revived = SpikeAttribution.from_dict(data)
    assert revived.resilience == ["degraded"]
    # records written before the field existed load with an empty list
    data.pop("resilience")
    assert SpikeAttribution.from_dict(data).resilience == []


# ----------------------------------------------------------------------
# scenario-library sampling
# ----------------------------------------------------------------------


def test_library_soak_samples_per_seed_and_records_names():
    from repro.scenarios import SOAK_POOL, sample_scenario

    report = short_soak(kind="library", seeds=(1, 2))
    assert report.kind == "library"
    expected = [sample_scenario(s).name for s in (1, 2)]
    assert report.scenarios == expected
    assert set(report.scenarios) <= set(SOAK_POOL)
    for run, name in zip(report.runs, expected):
        assert run["scenario"] == name
        assert run["label"] == f"soak-{name}-seed{run['seed']}"
    assert report.ok


def test_pinned_scenario_soak_uses_that_scenario():
    report = short_soak(kind="baseline_wordcount", seeds=(3,))
    assert report.scenarios == ["baseline_wordcount"]
    (run,) = report.runs
    assert run["scenario"] == "baseline_wordcount"
    assert run["ok"]


def test_alias_kind_soak_records_the_baseline_scenario_name():
    report = short_soak()  # kind="traffic", the alias of baseline_traffic
    assert report.kind == "traffic"
    assert report.scenarios == ["baseline_traffic"]
    (run,) = report.runs
    assert run["scenario"] == "baseline_traffic"


def test_soak_rejects_unknown_kind():
    import pytest as _pytest

    from repro.errors import ConfigurationError

    with _pytest.raises(ConfigurationError):
        short_soak(kind="no-such-pipeline")


# ----------------------------------------------------------------------
# cluster soak: node-level chaos with the exactly-once audit
# ----------------------------------------------------------------------

CLUSTER_PLAN = {
    "name": "soak-node-crash",
    "faults": [
        {"kind": "node_crash", "at_s": 24.0, "duration_s": 4.0, "node": 0},
    ],
}


def test_cluster_soak_audits_exactly_once_per_window():
    # recovery_ratio 3 tolerates the background compaction-debt creep
    # these near-saturated scenarios accumulate even unfaulted, while a
    # crash spike (~6 s p99.9) would still have to drain to pass
    report = short_soak(kind="baseline_traffic", faults=CLUSTER_PLAN,
                        cluster=True, recovery_ratio=3.0)
    assert report.ok
    (run,) = report.runs
    (window,) = run["windows"]
    assert window["label"] == "node_crash"
    assert window["exactly_once"] is True
    assert window["recovered_at"] is not None
    assert run["migrations"] >= 1
    assert run["ownership_flips"] >= 1


def test_cluster_soak_without_flag_ignores_node_faults_gracefully():
    # same plan on a plain (clusterless) run: node_crash degrades to a
    # worker crash, so the soak still passes without the cluster audit
    report = short_soak(faults=CLUSTER_PLAN)
    assert report.ok
    (run,) = report.runs
    assert run["migrations"] == 0
    assert run["ownership_flips"] == 0


def test_random_cluster_soak_widens_the_kind_pool():
    # seed 3 draws node-level fault kinds from the widened pool (probed)
    report = short_soak(kind="baseline_traffic", faults="combined",
                        random_faults=True, cluster=True, seeds=(3,),
                        recovery_ratio=4.0, queue_limit_messages=600_000.0)
    assert report.ok
    (run,) = report.runs
    kinds = {k for w in run["windows"] for k in w["label"].split("+")}
    from repro.faults import ALL_FAULT_KINDS, CLUSTER_FAULT_KINDS
    assert kinds <= set(ALL_FAULT_KINDS)
    assert kinds & set(CLUSTER_FAULT_KINDS)

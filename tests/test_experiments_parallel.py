"""Tests for the parallel experiment executor and RunSummary."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.parallel import (
    RunSpec,
    _resolve_jobs,
    execute_spec,
    run_grid,
    sweep,
)
from repro.experiments.runner import ExperimentSettings
from repro.experiments.summary import RunSummary
from repro.scenarios import scenario

SHORT = ExperimentSettings(duration_s=30.0, warmup_s=10.0, seed=3)


@pytest.fixture(scope="module")
def short_specs():
    return [
        RunSpec(settings=SHORT.with_seed(seed), label=f"seed{seed}")
        for seed in (3, 4, 5)
    ]


@pytest.fixture(scope="module")
def serial_summaries(short_specs):
    return run_grid(short_specs, jobs=1, cache=False)


class TestRunSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            RunSpec(scenario="bogus")
        with pytest.raises(TypeError):
            RunSpec(kind="traffic")  # the kind= spelling is gone

    def test_rejects_unknown_storage(self):
        with pytest.raises(ConfigurationError):
            RunSpec(scenario=scenario("baseline_traffic", storage="floppy"))

    def test_with_seed_changes_only_seed(self):
        spec = RunSpec(settings=SHORT)
        reseeded = spec.with_seed(99)
        assert reseeded.settings.seed == 99
        assert reseeded.settings.duration_s == SHORT.duration_s

    def test_label_excluded_from_key(self):
        a = RunSpec(settings=SHORT, label="a")
        b = RunSpec(settings=SHORT, label="b")
        assert a.key_dict() == b.key_dict()


class TestRunSummary:
    def test_dict_roundtrip_is_exact(self, serial_summaries):
        for summary in serial_summaries:
            wire = json.loads(json.dumps(summary.to_dict()))
            restored = RunSummary.from_dict(wire)
            assert restored.to_dict() == summary.to_dict()

    def test_alignment_keys_restored_as_ints(self, serial_summaries):
        summary = serial_summaries[0]
        wire = json.loads(json.dumps(summary.to_dict()))
        restored = RunSummary.from_dict(wire)
        for key in restored.per_checkpoint_compactions:
            assert isinstance(key, int)

    def test_tails_contain_standard_quantiles(self, serial_summaries):
        for summary in serial_summaries:
            assert set(summary.tails) == {"p50", "p95", "p99", "p999", "max"}
            assert summary.p999 == summary.tails["p999"]

    def test_peak_p999_tracks_coarse_timeline(self, serial_summaries):
        summary = serial_summaries[0]
        assert summary.peak_p999 == max(summary.coarse_p999)


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, short_specs,
                                                 serial_summaries):
        parallel = run_grid(short_specs, jobs=4, cache=False)
        assert [s.to_dict() for s in parallel] == [
            s.to_dict() for s in serial_summaries
        ]

    def test_serial_rerun_is_reproducible(self, short_specs,
                                          serial_summaries):
        again = run_grid(short_specs, jobs=1, cache=False)
        assert [s.to_dict() for s in again] == [
            s.to_dict() for s in serial_summaries
        ]

    def test_results_in_submission_order(self, short_specs, serial_summaries):
        assert [s.label for s in serial_summaries] == [
            spec.label for spec in short_specs
        ]
        assert [s.seed for s in serial_summaries] == [3, 4, 5]


class TestSweep:
    def test_sweep_preserves_value_order(self):
        out = sweep(
            [0.0, 0.5],
            lambda d: RunSpec(settings=SHORT, label=f"d{d}"),
            jobs=2,
            cache=False,
        )
        assert [s.label for s in out] == ["d0.0", "d0.5"]

    def test_execute_spec_matches_run_grid(self, short_specs,
                                           serial_summaries):
        direct = execute_spec(short_specs[0])
        assert direct.to_dict() == serial_summaries[0].to_dict()


def test_resolve_jobs():
    assert _resolve_jobs(None) == 1
    assert _resolve_jobs(3) == 3
    assert _resolve_jobs(0) >= 1
    assert _resolve_jobs(-1) >= 1

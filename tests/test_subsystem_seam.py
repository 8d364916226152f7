"""Tests for the subsystem seam: one registry on the job through which
faults, resilience and cluster reach the engine, the result and the
detector — plus the composed-run golden that pins the refactor."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.millibottleneck import analyze_result, detect
from repro.cluster import ClusterSpec, MembershipEvent, install_cluster
from repro.errors import AnalysisError, SimulationError
from repro.experiments.runner import ExperimentSettings
from repro.faults import inject_faults, preset_plan
from repro.resilience import install_resilience
from repro.scenarios import build_scenario_job, scenario
from repro.scenarios.run import run_scenario
from repro.serialize import canonical_json
from repro.stream.engine import Subsystem

COMPOSED_GOLDEN = Path(__file__).parent / "data" / "composed_run_golden.json"
COMPOSED = ExperimentSettings(duration_s=60.0, warmup_s=10.0, seed=7)


def composed_run():
    """``elastic_scale`` for 60 s with all three add-on layers at once:
    the preset ``chaos`` plan, resilience on, and the scenario's 4→8→4
    membership plan pulled forward (20 s / 45 s instead of 60 s / 150 s)
    so the cluster layer contributes windows inside the short run."""
    spec = scenario(
        "elastic_scale",
        cluster=ClusterSpec(events=(
            MembershipEvent(action="join", at_s=20.0, count=4),
            MembershipEvent(action="leave", at_s=45.0, count=4),
        )),
        faults=preset_plan("chaos"),
        resilience=True,
    )
    return run_scenario(spec, settings=COMPOSED)


def composed_digest(result) -> dict:
    """The detector report in full, the run summary as one sha256 per
    top-level section (a mismatch names the section that moved)."""
    analysis = analyze_result(result, start=COMPOSED.warmup_s).to_dict()
    return {
        "analysis": json.loads(json.dumps(analysis)),
        "summary_sha256": {
            section: hashlib.sha256(canonical_json(value).encode()).hexdigest()
            for section, value in result.summary().items()
        },
    }


def test_composed_run_matches_the_golden_recorded_before_the_refactor():
    golden = json.loads(COMPOSED_GOLDEN.read_text())
    digest = composed_digest(composed_run())
    assert digest["analysis"] == golden["analysis"]
    assert digest["summary_sha256"] == golden["summary_sha256"]
    # all three attribution channels are live in this run
    spikes = golden["analysis"]["spikes"]
    for channel in ("faults", "resilience", "cluster"):
        assert any(spike[channel] for spike in spikes), channel


# ----------------------------------------------------------------------
# a sixth attribution source touches one file: this one
# ----------------------------------------------------------------------


class ProbeSubsystem(Subsystem):
    """A test-local layer: one known-cause window, one report."""

    channel = "faults"

    def __init__(self, windows):
        self.windows = windows
        self.finalized_at = None

    def report(self):
        return {"windows": len(self.windows)}

    def finalize(self, now):
        self.finalized_at = now


def test_attached_stub_reaches_result_summary_and_detector():
    settings = ExperimentSettings(duration_s=72.0, warmup_s=10.0, seed=3)
    job = build_scenario_job("baseline_traffic", seed=settings.seed)
    # the aligned baseline spikes every 4th checkpoint: ~33 s and ~65 s
    probe = ProbeSubsystem([("probe-window", 33.0, 35.0)])
    assert job.attach("probe", probe) is probe
    assert list(job.subsystems) == ["probe"]
    result = job.run(settings.duration_s)

    assert probe.finalized_at == settings.duration_s
    assert result.windows() == {"faults": [("probe-window", 33.0, 35.0)]}
    assert result.reports() == {"probe": {"windows": 1}}
    assert result.summary()["probe"] == {"windows": 1}
    first, second = analyze_result(result, start=settings.warmup_s).spikes
    assert first.window[0] <= 33.0 <= first.window[1]
    assert first.faults == ["probe-window"]
    assert second.faults == []


@pytest.mark.parametrize("install", [
    lambda job: job.attach("probe", ProbeSubsystem([])),
    lambda job: inject_faults(job, "crash"),
    lambda job: install_resilience(job, True),
    lambda job: install_cluster(job, ClusterSpec()),
], ids=["attach", "inject_faults", "install_resilience", "install_cluster"])
def test_second_install_of_a_layer_is_rejected(install):
    job = build_scenario_job("baseline_traffic")
    first = install(job)
    installed = dict(job.subsystems)
    admission = job.admission
    with pytest.raises(SimulationError, match="already installed"):
        install(job)
    # the rejected install left the first one in charge
    assert first in installed.values()
    assert job.subsystems == installed
    assert job.admission is admission


def test_detect_rejects_an_unknown_channel():
    times = np.arange(0.0, 10.0, 0.05)
    with pytest.raises(AnalysisError, match="nope"):
        detect(times, np.full(len(times), 0.3),
               windows={"nope": [("x", 1.0, 2.0)]})

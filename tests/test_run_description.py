"""One run description: a ``ScenarioSpec`` is the only way to say what
runs, ``build_scenario_job`` the only way harness code builds it, and
equal content is one cache address however the spec was spelled.

``tests/data/run_description_golden.json`` was recorded at the commit
*before* the ``kind=``/``mitigation=``/``interval_s=``/``storage=``
keywords left ``RunSpec`` — through that legacy spelling — and is
asserted here through the scenario spelling that replaced it."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.scenarios.run as scenario_run
from repro.core.mitigation import MitigationPlan
from repro.experiments import figures
from repro.experiments.parallel import RunSpec, execute_spec, spec_cache_key
from repro.experiments.profile import profile_run
from repro.experiments.runner import ExperimentSettings
from repro.experiments.shard import execute_spec_sharded
from repro.resilience.soak import run_soak
from repro.sanitize import experiment_factory, state_digest
from repro.scenarios import build_scenario_job, run_scenario, scenario
from repro.serialize import canonical_json

GOLDEN = Path(__file__).parent / "data" / "run_description_golden.json"
SETTINGS = ExperimentSettings(duration_s=40.0, warmup_s=8.0, seed=3)
#: Summary fields that name the run rather than describe what it did.
PRESENTATION = ("kind", "label", "scenario")


def _spec(name, /, **overrides):
    return RunSpec(scenario=scenario(name, **overrides), settings=SETTINGS)


#: case -> the summary of one short run.  The comment is the legacy
#: spelling the golden was recorded through.
CASES = {
    # RunSpec(settings=S, mitigation=MitigationPlan(randomize..., delay=1.0))
    "fig12_delay_1s": lambda: execute_spec(_spec(
        "baseline_traffic",
        mitigation=MitigationPlan(
            randomize_compaction_trigger=True, compaction_delay_s=1.0
        ),
    )),
    # RunSpec(settings=S, interval_s=16.0, initial_l0="staggered")
    "interval_16s_staggered": lambda: execute_spec(
        RunSpec(scenario=figures.SCHEDULED, settings=SETTINGS)
    ),
    # RunSpec(kind="wordcount", settings=S, mitigation=paper_solution())
    "wordcount_paper_solution": lambda: execute_spec(_spec(
        "baseline_wordcount", mitigation=MitigationPlan.paper_solution()
    )),
    # RunSpec(settings=S, storage="nvme")
    "traffic_nvme": lambda: execute_spec(
        _spec("baseline_traffic", storage="nvme")
    ),
    # execute_spec_sharded(RunSpec(settings=S), 2).merged
    "traffic_two_shards": lambda: execute_spec_sharded(
        _spec("baseline_traffic"), 2
    ).merged,
}


def summary_digest(summary) -> dict:
    """The tails in the clear plus one sha256 per summary field (a
    mismatch names the field that moved), presentation fields dropped."""
    body = {
        key: value
        for key, value in summary.to_dict().items()
        if key not in PRESENTATION
    }
    return {
        "tails": body["tails"],
        "sha256": {
            key: hashlib.sha256(canonical_json(value).encode()).hexdigest()
            for key, value in sorted(body.items())
        },
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_scenario_spelling_matches_the_legacy_golden(case):
    golden = json.loads(GOLDEN.read_text())[case]
    assert summary_digest(CASES[case]()) == golden


# ----------------------------------------------------------------------
# one address per run
# ----------------------------------------------------------------------


def test_equal_content_is_one_cache_address():
    library = RunSpec(scenario="baseline_wordcount", settings=SETTINGS)
    renamed = _spec("baseline_wordcount", name="mine", description="a copy")
    assert scenario("baseline_wordcount", **{}) is library.scenario
    assert spec_cache_key(renamed) == spec_cache_key(library)
    assert spec_cache_key(_spec("wordcount")) == spec_cache_key(library)
    assert spec_cache_key(
        RunSpec(scenario=library.scenario.to_dict(), settings=SETTINGS)
    ) == spec_cache_key(library)


def test_fig12_sweep_and_perfbench_share_cache_addresses(monkeypatch):
    fig12_sweep = pytest.importorskip("perfbench.workloads.fig12_sweep")
    captured = []

    def capture(values, make_spec, **_):
        captured.extend(make_spec(value) for value in values)
        return [SimpleNamespace(tails={"p999": 0.0}) for _ in values]

    monkeypatch.setattr(figures, "sweep", capture)
    figures.fig12_delay_sweep(settings=SETTINGS)
    bench = fig12_sweep.build(seed=SETTINGS.seed, small=False)["specs"]
    bench = [replace(spec, settings=SETTINGS) for spec in bench]
    assert [spec_cache_key(s) for s in captured] == [
        spec_cache_key(s) for s in bench
    ]


# ----------------------------------------------------------------------
# the removed spellings are gone, the short names are aliases
# ----------------------------------------------------------------------


def test_removed_keywords_raise_type_error():
    with pytest.raises(TypeError):
        RunSpec(kind="traffic")
    with pytest.raises(TypeError):
        RunSpec(settings=SETTINGS, mitigation=MitigationPlan.paper_solution())
    with pytest.raises(TypeError):
        run_scenario("baseline_traffic", settings=SETTINGS, faults="crash")
    with pytest.raises(TypeError):
        run_soak(kind="traffic", interval_s=8.0)


def test_short_names_are_aliases_not_library_entries():
    from repro.scenarios import scenario_names

    assert scenario("traffic") is scenario("baseline_traffic")
    assert scenario("wordcount") is scenario("baseline_wordcount")
    assert not {"traffic", "wordcount"} & set(scenario_names())


def test_every_entry_point_builds_the_job_build_scenario_job_builds(monkeypatch):
    """``profile_run``, ``experiment_factory`` and ``run_soak`` given the
    ``wordcount`` alias start from exactly the job
    ``build_scenario_job("baseline_wordcount")`` assembles."""
    expected = state_digest(build_scenario_job("baseline_wordcount", seed=4))
    built = []
    real = scenario_run.build_scenario_job

    def spy(*args, **kwargs):
        job = real(*args, **kwargs)
        built.append(state_digest(job))
        return job

    monkeypatch.setattr(scenario_run, "build_scenario_job", spy)
    profile_run(kind="wordcount", duration_s=1.0, seed=4, with_cprofile=False)
    experiment_factory("wordcount", seed=4)("fifo")
    run_soak(kind="wordcount", seeds=(4,), duration_s=1.0, warmup_s=0.0,
             cache=False)
    assert built == [expected] * 3

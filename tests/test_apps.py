"""Unit tests for the app table and the jobs built from its rows."""

import pytest

from repro.apps import APPS
from repro.core import MitigationPlan
from repro.errors import ConfigurationError
from repro.scenarios import build_scenario_job, scenario


def test_traffic_stage_shape_matches_paper():
    stages = APPS["traffic"].stages
    assert [s.parallelism for s in stages] == [64, 64, 1]
    assert [s.name for s in stages] == ["s0", "s1", "s2"]


def test_traffic_deployment_matches_figure4():
    job = build_scenario_job("baseline_traffic")
    assert len(job.nodes) == 4
    assert all(node.cores == 16 for node in job.nodes)
    assert job.cluster.storage.name == "tmpfs"
    # 129 instances over 4 nodes
    assert sum(len(n.instances) for n in job.nodes) == 129


def test_traffic_presets():
    aligned = build_scenario_job(scenario("baseline_traffic", initial_l0="aligned"))
    for instance in aligned.stage("s0").instances:
        assert instance.store.l0_file_count == 0
    staggered = build_scenario_job(
        scenario("baseline_traffic", initial_l0="staggered")
    )
    assert staggered.stage("s0").instances[0].store.l0_file_count == 2
    assert staggered.stage("s1").instances[0].store.l0_file_count == 0
    assert set(APPS["traffic"].initial_l0) == {"aligned", "staggered"}


@pytest.mark.parametrize(
    "name, preset",
    [
        ("baseline_traffic", "diagonal"),
        ("baseline_wordcount", "staggered"),  # a traffic-only preset
        ("windowed_join", "diagonal"),
    ],
    ids=["baseline_traffic", "baseline_wordcount", "windowed_join"],
)
def test_unknown_initial_l0_preset_is_rejected_for_every_app(name, preset):
    with pytest.raises(ConfigurationError, match="initial_l0 preset"):
        build_scenario_job(scenario(name, initial_l0=preset))


def test_traffic_storage_override():
    job = build_scenario_job(scenario("baseline_traffic", storage="nvme"))
    assert all(node.storage.name == "nvme" for node in job.nodes)


def test_traffic_steady_utilization_calibration():
    """DESIGN.md §5: message processing needs ~12 of 16 cores/node."""
    job = build_scenario_job("baseline_traffic")
    per_node_rate = 60000.0 / 4
    s0 = job.stage("s0").spec
    s1 = job.stage("s1").spec
    cores_needed = per_node_rate * job.cost.cpu_seconds_per_message * (
        s0.work_multiplier + s1.work_multiplier * s0.selectivity
    )
    assert cores_needed == pytest.approx(12.0, rel=0.05)


def test_wordcount_deployment_matches_section52():
    job = build_scenario_job("baseline_wordcount")
    assert len(job.nodes) == 1
    assert job.nodes[0].cores == 16
    stages = APPS["wordcount"].stages
    assert [s.name for s in stages] == ["split", "count"]
    assert all(s.parallelism == 64 for s in stages)
    assert not stages[0].stateful


def test_wordcount_cost_targets_70_percent_cpu():
    job = build_scenario_job("baseline_wordcount")
    assert job.source.steady_rate() == 25000.0
    cores = 2 * 25000.0 * job.cost.cpu_seconds_per_message
    assert cores == pytest.approx(16 * 0.70, rel=0.01)


def test_seed_changes_run_outcome_deterministically():
    # the randomized compaction trigger draws from the seeded RNG; the
    # baseline draws nothing, so its seeds would be indistinguishable
    spec = scenario(
        "baseline_traffic",
        mitigation=MitigationPlan(randomize_compaction_trigger=True),
    )

    def tails(seed):
        result = build_scenario_job(spec, seed=seed).run(60.0)
        return result.tail_summary(start=20.0)

    tails_a, tails_b, tails_c = tails(1), tails(1), tails(2)
    assert tails_a == tails_b  # bit-for-bit deterministic
    assert tails_a is not tails_b
    assert tails_a != tails_c

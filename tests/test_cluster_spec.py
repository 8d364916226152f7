"""Validation, serialization and cache-key behavior of the cluster specs."""

import json
from pathlib import Path

import pytest

from repro.cluster import ClusterSpec
from repro.errors import ConfigurationError
from repro.experiments.parallel import cache_key_from_dict
from repro.faults import MEMBERSHIP_KINDS, FaultSpec
from repro.scenarios import ScenarioSpec, scenario

GOLDEN_KEYS = Path(__file__).parent / "data" / "scenario_cache_keys.json"


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_membership_event_rejects_unknown_action():
    """Membership changes are fault-plan entries of two kinds only."""
    with pytest.raises(ConfigurationError) as info:
        FaultSpec(kind="node_reboot", at_s=10.0, factor=1.0)
    for kind in MEMBERSHIP_KINDS:
        assert kind in str(info.value)


def test_membership_event_rejects_zero_count():
    """``factor`` is the whole node count of a join or leave."""
    for kind in MEMBERSHIP_KINDS:
        for count in (0.0, 0.5, 2.5, -2.0, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError):
                FaultSpec(kind=kind, at_s=10.0, factor=count)
        assert FaultSpec(kind=kind, at_s=10.0, factor=3.0).factor == 3.0


@pytest.mark.parametrize("kwargs", [
    {"migration_bandwidth_mb_s": 0.0},
    {"migration_bandwidth_mb_s": -1.0},
    {"transfer_deadline_s": 0.0},
    {"transfer_deadline_s": -1.0},
    # a stored schedule from before joins and leaves were plan entries
    # must not load as a static cluster
    {"events": [{"action": "join", "at_s": 60.0, "count": 4}]},
    {"events": [{"action": "leave", "at_s": 150.0, "count": 4}]},
    {"events": [{"action": "reboot"}]},
    {"migration_bandwidth_mb_s": 50.0, "events": [{}]},
])
def test_cluster_spec_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigurationError):
        ClusterSpec.from_dict(kwargs)


def test_cluster_spec_coerces_nested_dicts():
    spec = ScenarioSpec(name="elastic", cluster={"transfer_deadline_s": 30.0})
    assert spec.cluster == ClusterSpec(transfer_deadline_s=30.0)


def test_stored_cluster_events_name_the_plan_entries():
    with pytest.raises(ConfigurationError) as info:
        ScenarioSpec.from_dict({
            "name": "elastic",
            "cluster": {"events": [{"action": "join", "at_s": 60.0, "count": 4}]},
        })
    assert "node_join" in str(info.value) and "node_leave" in str(info.value)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_cluster_spec_roundtrips():
    spec = ClusterSpec(migration_bandwidth_mb_s=40.0, transfer_deadline_s=30.0)
    assert ClusterSpec.from_dict(spec.to_dict()) == spec
    assert ClusterSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))
    ) == spec


def test_cluster_spec_from_dict_drops_knobs_it_no_longer_has():
    """Specs stored while transfers still retried behind a breaker,
    joins and rejoins still had their own knobs, the detector, handover
    and concurrency constants were still fields, and an empty membership
    schedule was still serialized, load as the same spec."""
    spec = ClusterSpec(migration_bandwidth_mb_s=0.05)
    stored = dict(
        spec.to_dict(),
        events=[],
        node={"cores": 0},
        retry={"max_attempts": 4, "base_delay_s": 0.25, "multiplier": 2.0,
               "max_delay_s": 4.0, "jitter": 0.2},
        breaker_failures=3, breaker_reset_s=5.0, rebalance_on_rejoin=True,
        initial_nodes=4, heartbeat_interval_s=0.25, phi_threshold=6.0,
        min_std_s=0.1, history_window=8, handover_pause_s=0.1,
        max_parallel_migrations=2,
    )
    assert ClusterSpec.from_dict(stored) == spec
    assert len(ClusterSpec().to_dict()) == 2


def test_cluster_spec_registered_with_serializer():
    spec = ClusterSpec(transfer_deadline_s=5.0)
    assert ClusterSpec.from_dict(spec.to_dict()) == spec


def test_scenario_without_cluster_serializes_without_the_key():
    """Legacy scenarios must keep their dict (and cache key) unchanged."""
    spec = ScenarioSpec(name="plain")
    assert "cluster" not in spec.to_dict()


def test_scenario_with_cluster_roundtrips():
    spec = ScenarioSpec(
        name="elastic",
        cluster=ClusterSpec(migration_bandwidth_mb_s=30.0),
    )
    payload = spec.to_dict()
    assert payload["cluster"]["migration_bandwidth_mb_s"] == 30.0
    assert ScenarioSpec.from_dict(json.loads(json.dumps(payload))) == spec


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------


def test_cluster_enters_the_cache_key():
    plain = ScenarioSpec(name="x")
    elastic = ScenarioSpec(name="x", cluster=ClusterSpec())
    assert (cache_key_from_dict(plain.key_dict())
            != cache_key_from_dict(elastic.key_dict()))


def test_migration_pacing_changes_the_cache_key():
    a = ScenarioSpec(name="x", cluster=ClusterSpec())
    b = ScenarioSpec(name="x",
                     cluster=ClusterSpec(migration_bandwidth_mb_s=0.05))
    assert (cache_key_from_dict(a.key_dict())
            != cache_key_from_dict(b.key_dict()))


def test_legacy_scenario_keys_survived_the_cluster_field():
    """Adding the optional cluster field must not move any pre-cluster
    scenario's cache address (stored results stay valid)."""
    goldens = json.loads(GOLDEN_KEYS.read_text())
    for name in ("baseline_traffic", "diurnal_flash", "windowed_join"):
        key = cache_key_from_dict(scenario(name).key_dict(), version="golden")
        assert key == goldens[name]


def test_elastic_scale_is_in_the_library():
    spec = scenario("elastic_scale")
    assert spec.cluster == ClusterSpec()
    assert [(f.kind, f.at_s, f.factor) for f in spec.faults] == [
        ("node_join", 60.0, 4.0), ("node_leave", 150.0, 4.0),
        ("node_crash", 110.0, 0.5),
    ]

"""Validation, serialization and cache-key behavior of the cluster specs."""

import json
from pathlib import Path

import pytest

from repro.cluster import ClusterSpec, MembershipEvent
from repro.errors import ConfigurationError
from repro.experiments.parallel import cache_key_from_dict
from repro.scenarios import ScenarioSpec, scenario

GOLDEN_KEYS = Path(__file__).parent / "data" / "scenario_cache_keys.json"


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_membership_event_rejects_unknown_action():
    with pytest.raises(ConfigurationError):
        MembershipEvent(action="reboot")


def test_membership_event_rejects_zero_count():
    with pytest.raises(ConfigurationError):
        MembershipEvent(action="join", count=0)


@pytest.mark.parametrize("kwargs", [
    {"migration_bandwidth_mb_s": 0.0},
    {"migration_bandwidth_mb_s": -1.0},
    {"transfer_deadline_s": 0.0},
    {"transfer_deadline_s": -1.0},
    {"events": [{"action": "reboot"}]},
    {"events": [{"action": "join", "count": 0}]},
    {"events": [{"action": "leave", "at_s": -1.0}]},
    {"events": [MembershipEvent(), {"action": "join", "count": -2}]},
])
def test_cluster_spec_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigurationError):
        ClusterSpec(**kwargs)


def test_cluster_spec_coerces_nested_dicts():
    spec = ClusterSpec(
        events=[{"action": "join", "at_s": 10.0, "count": 2}],
    )
    assert spec.events == (MembershipEvent(action="join", at_s=10.0, count=2),)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_cluster_spec_roundtrips():
    spec = ClusterSpec(
        migration_bandwidth_mb_s=40.0,
        transfer_deadline_s=30.0,
        events=(
            MembershipEvent(action="join", at_s=20.0, count=2),
            MembershipEvent(action="leave", at_s=80.0, count=2),
        ),
    )
    assert ClusterSpec.from_dict(spec.to_dict()) == spec
    assert ClusterSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))
    ) == spec


def test_cluster_spec_from_dict_drops_knobs_it_no_longer_has():
    """Specs stored while transfers still retried behind a breaker,
    joins and rejoins still had their own knobs, and the detector,
    handover and concurrency constants were still fields, load as the
    same spec."""
    spec = ClusterSpec(migration_bandwidth_mb_s=0.05,
                       events=(MembershipEvent(at_s=5.0),))
    stored = dict(
        spec.to_dict(),
        node={"cores": 0},
        retry={"max_attempts": 4, "base_delay_s": 0.25, "multiplier": 2.0,
               "max_delay_s": 4.0, "jitter": 0.2},
        breaker_failures=3, breaker_reset_s=5.0, rebalance_on_rejoin=True,
        initial_nodes=4, heartbeat_interval_s=0.25, phi_threshold=6.0,
        min_std_s=0.1, history_window=8, handover_pause_s=0.1,
        max_parallel_migrations=2,
    )
    assert ClusterSpec.from_dict(stored) == spec
    assert len(ClusterSpec().to_dict()) == 3


def test_cluster_spec_registered_with_serializer():
    spec = ClusterSpec(events=(MembershipEvent(at_s=5.0),))
    assert ClusterSpec.from_dict(spec.to_dict()) == spec


def test_scenario_without_cluster_serializes_without_the_key():
    """Legacy scenarios must keep their dict (and cache key) unchanged."""
    spec = ScenarioSpec(name="plain")
    assert "cluster" not in spec.to_dict()


def test_scenario_with_cluster_roundtrips():
    spec = ScenarioSpec(
        name="elastic",
        cluster=ClusterSpec(events=(MembershipEvent(at_s=30.0),)),
    )
    payload = spec.to_dict()
    assert payload["cluster"]["events"][0]["at_s"] == 30.0
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
    assert spec.cluster is not None
    actions = [event.action for event in spec.cluster.events]
    assert actions == ["join", "leave"]
    assert spec.faults is not None
    assert [f.kind for f in spec.faults.faults] == ["node_crash"]

"""The named scenario library.

Each entry is a fully-specified :class:`~repro.scenarios.spec.ScenarioSpec`
exercising one axis of the space where ShadowSync's hidden
synchronization shows up (the Pulsar enterprise-benchmark methodology is
the template for the matrix: rate shape x key distribution x topology x
tenancy x client loop).  The catalog with per-scenario intent and
expected tail behavior lives in EXPERIMENTS.md.

``repro soak`` samples from :data:`SOAK_POOL` (the steady-baseline
subset whose recovery audits are meaningful) with the seeded
:func:`sample_scenario`, so the chaos harness sweeps the scenario space
instead of hammering one pipeline.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Sequence

from ..cluster.spec import ClusterSpec, MembershipEvent
from ..errors import ConfigurationError, did_you_mean
from ..faults.plan import FaultPlan, FaultSpec
from .spec import ScenarioSpec, WorkloadSpec

__all__ = [
    "SCENARIOS",
    "SOAK_POOL",
    "scenario",
    "scenario_names",
    "sample_scenario",
    "sample_scenarios",
]


def _build_library() -> dict:
    entries = (
        ScenarioSpec(
            name="baseline_traffic",
            app="traffic",
            description=(
                "The paper's 4-node traffic-jam pipeline at a steady "
                "60k msg/s — the reference deployment every other "
                "scenario perturbs."
            ),
        ),
        ScenarioSpec(
            name="baseline_wordcount",
            app="wordcount",
            description=(
                "Single-node Kafka Streams WordCount at 25k sentences/s "
                "(commit-triggered RocksDB flushes)."
            ),
            workload=WorkloadSpec(arrival="constant", rate=25000.0),
        ),
        ScenarioSpec(
            name="diurnal_flash",
            app="traffic",
            description=(
                "Diurnal load (troughs to 40% of peak, 4-minute period) "
                "with two flash crowds; uneven flush pressure across the "
                "cycle desynchronizes L0 counters between stages."
            ),
            workload=WorkloadSpec(
                arrival="diurnal",
                rate=60000.0,
                period_s=240.0,
                trough_factor=0.4,
                bursts=((90.0, 20.0, 1.5), (150.0, 15.0, 1.7)),
            ),
        ),
        ScenarioSpec(
            name="hotkey_shift",
            app="traffic",
            description=(
                "Steady rate but a hot key range pins 30% of ingest "
                "(1.2x the fair share) to one node, shifting to another "
                "node mid-run; the hot node's flushes desynchronize from "
                "the rest of the cluster's checkpoint-aligned "
                "maintenance."
            ),
            workload=WorkloadSpec(
                arrival="constant",
                rate=60000.0,
                skew=((40.0, 0.30, 0), (120.0, 0.30, 2)),
            ),
        ),
        ScenarioSpec(
            name="windowed_join",
            app="join",
            description=(
                "Two-input windowed ad-attribution join with downstream "
                "sessionization; append-heavy window state makes flushes "
                "large and both branches must align on every barrier."
            ),
            workload=WorkloadSpec(arrival="constant", rate=32000.0),
            window_s=30.0,
        ),
        ScenarioSpec(
            name="closed_loop",
            app="traffic",
            description=(
                "A fixed population of 60k closed-loop clients (1s think "
                "time): the offered rate self-limits when the tail grows, "
                "hiding overload that an open-loop run would expose "
                "(coordinated omission)."
            ),
            workload=WorkloadSpec(
                arrival="closed_loop",
                clients=60000,
                think_time_s=1.0,
                base_service_s=0.002,
            ),
        ),
        ScenarioSpec(
            name="multi_tenant",
            app="traffic",
            description=(
                "Four copies of the traffic pipeline sharing the 4 nodes "
                "(16 instances each); every tenant's checkpoint-"
                "synchronized flushes land in the shared background "
                "pools — the noisy-neighbor variant of ShadowSync."
            ),
            workload=WorkloadSpec(arrival="constant", rate=60000.0),
            tenants=4,
        ),
        ScenarioSpec(
            name="elastic_scale",
            app="traffic",
            description=(
                "Elastic 4->8->4 traffic pipeline under diurnal load: "
                "four nodes join at 60s, four leave at 150s, and one "
                "node crashes mid-run at 110s — every partition move is "
                "a checkpoint-shipped migration audited for single "
                "ownership and no lost state (repro.cluster)."
            ),
            workload=WorkloadSpec(
                arrival="diurnal",
                rate=60000.0,
                period_s=240.0,
                trough_factor=0.4,
            ),
            cluster=ClusterSpec(
                events=(
                    MembershipEvent(action="join", at_s=60.0, count=4),
                    MembershipEvent(action="leave", at_s=150.0, count=4),
                ),
            ),
            faults=FaultPlan(
                name="elastic-mid-run-crash",
                faults=(
                    FaultSpec(
                        kind="node_crash", at_s=110.0, duration_s=3.0, node=1
                    ),
                ),
            ),
        ),
    )
    return {entry.name: entry for entry in entries}


#: Name -> :class:`ScenarioSpec` of every library scenario.
SCENARIOS = _build_library()

#: Short names for the two paper baselines, accepted wherever a library
#: name is (``--kind traffic``, ``api.sanitize(kind="wordcount")``);
#: resolved here and nowhere else, and not listed by
#: :func:`scenario_names`.
ALIASES = {"traffic": "baseline_traffic", "wordcount": "baseline_wordcount"}

#: The soak sampler's pool: scenarios with a stationary healthy baseline
#: so the per-fault-window recovery audit is meaningful.  The diurnal,
#: closed-loop and hot-key-shift workloads move on their own mid-run and
#: would fail a fixed pre-fault-baseline recovery check for workload
#: reasons, not resilience bugs — run those through ``repro run
#: --scenario`` instead.
SOAK_POOL = (
    "baseline_traffic",
    "baseline_wordcount",
    "windowed_join",
    "multi_tenant",
)


def scenario(name: str, /, **overrides) -> ScenarioSpec:
    """The library scenario registered under *name* (or its alias).

    *overrides* vary single axes of the entry —
    ``scenario("baseline_traffic", mitigation=plan, storage="nvme")`` —
    and return a copy; without them the library object itself comes
    back.  Unknown names raise :class:`ConfigurationError` with a
    did-you-mean suggestion list, so CLI typos exit cleanly instead of
    dumping a ``KeyError`` traceback.
    """
    try:
        entry = SCENARIOS[ALIASES.get(name, name)]
    except KeyError:
        hint = did_you_mean(name, SCENARIOS)
        raise ConfigurationError(
            f"unknown scenario {name!r}{hint}; available: {sorted(SCENARIOS)}"
        ) from None
    return replace(entry, **overrides) if overrides else entry


def scenario_names() -> List[str]:
    """All library scenario names, sorted."""
    return sorted(SCENARIOS)


def sample_scenario(
    seed: int, pool: Sequence[str] = SOAK_POOL, salt: int = 0
) -> ScenarioSpec:
    """Deterministically pick one pool scenario for *seed*.

    The draw is a pure function of ``(seed, salt)``: the soak harness
    uses the run seed, so re-running a soak re-runs the same scenarios
    (and hits the result cache)."""
    if not pool:
        raise ConfigurationError("scenario pool must not be empty")
    rng = random.Random(100003 * salt + seed)
    return scenario(rng.choice(list(pool)))


def sample_scenarios(
    seeds: Sequence[int], pool: Sequence[str] = SOAK_POOL, salt: int = 0
) -> List[ScenarioSpec]:
    """One deterministic pool draw per seed."""
    return [sample_scenario(seed, pool=pool, salt=salt) for seed in seeds]

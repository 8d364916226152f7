"""Declarative, deterministic fault plans.

A :class:`FaultPlan` is the unit of fault injection: a named, frozen,
serializable list of :class:`FaultSpec` entries, each saying *what*
breaks (``kind``), *where* (``node``), *when* (``at_s``), for *how long*
(``duration_s``) and *how hard* (``factor``).  Plans are plain data —
they contain no simulator references — so they round-trip through
``to_dict``/``from_dict``, participate in the experiment cache key, and
can be generated from a seed (:meth:`FaultPlan.random`) for
property-based testing.  :meth:`FaultPlan.shrink` yields
strictly-simpler candidate plans so a failing random plan can be
minimised before it is reported.  Scheduled scale-out and scale-in are
entries too (:data:`MEMBERSHIP_KINDS`): one timeline, one shrinker.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "ALL_FAULT_KINDS",
    "ALL_NODES",
    "CLUSTER_FAULT_KINDS",
    "FAULT_KINDS",
    "MEMBERSHIP_KINDS",
    "FaultPlan",
    "FaultSpec",
    "PRESET_PLANS",
    "load_fault_plan",
    "preset_plan",
    "shrink_failing",
]

#: The classic single-job fault kinds.  Kept stable on purpose: random
#: plans draw from this tuple by default, so existing seeds keep
#: producing byte-identical plans.
FAULT_KINDS = (
    "worker_crash",
    "flush_stall",
    "compaction_stall",
    "slow_disk",
    "checkpoint_timeout",
    "kafka_backpressure",
)

#: Fault kinds targeting the elastic cluster layer (repro.cluster).
#: Without an installed ClusterManager, ``node_crash``/``node_flap``
#: degrade to classic worker-crash semantics and
#: ``network_partition`` is a recorded no-op.
CLUSTER_FAULT_KINDS = (
    "node_crash",
    "node_flap",
    "network_partition",
)

#: Every fault kind the injector knows how to begin and end.
ALL_FAULT_KINDS = FAULT_KINDS + CLUSTER_FAULT_KINDS

#: Membership changes of ``factor`` nodes at ``at_s`` (cluster layer
#: required); never drawn by :meth:`FaultPlan.random`.
MEMBERSHIP_KINDS = ("node_join", "node_leave")

#: Sentinel ``node`` value: the fault hits every node in the cluster.
ALL_NODES = -1

#: Fault kinds that act on the whole job rather than a single node.
GLOBAL_KINDS = ("checkpoint_timeout", "kafka_backpressure")


@dataclass(frozen=True, kw_only=True)
class FaultSpec:
    """One scheduled fault: kind, target, window, and intensity."""

    kind: str = "worker_crash"
    #: Simulated time the fault begins.
    at_s: float = 10.0
    #: How long the fault lasts (crash downtime, stall length, ...).
    duration_s: float = 2.0
    #: Target node index, taken modulo the cluster size so random plans
    #: stay valid on any cluster; :data:`ALL_NODES` hits every node.
    #: Ignored by the global kinds (:data:`GLOBAL_KINDS`).
    node: int = 0
    #: Kind-specific intensity: bandwidth fraction for ``slow_disk``,
    #: source-rate multiplier for ``kafka_backpressure``, the timeout in
    #: seconds for ``checkpoint_timeout``, the down/up cycle count for
    #: ``node_flap``, the whole node count (>= 1) for ``node_join`` and
    #: ``node_leave``; unused by the other kinds.
    factor: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS + MEMBERSHIP_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(ALL_FAULT_KINDS + MEMBERSHIP_KINDS)}"
            )
        if self.at_s < 0:
            raise ConfigurationError(f"fault at_s must be >= 0, got {self.at_s}")
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"fault duration_s must be > 0, got {self.duration_s}"
            )
        if self.factor <= 0:
            raise ConfigurationError(f"fault factor must be > 0, got {self.factor}")
        if self.kind == "slow_disk" and self.factor > 1.0:
            raise ConfigurationError(
                "slow_disk factor is a remaining-bandwidth fraction in (0, 1], "
                f"got {self.factor}"
            )
        if self.kind in MEMBERSHIP_KINDS and (
            self.factor < 1 or not float(self.factor).is_integer()
        ):
            raise ConfigurationError(
                f"{self.kind} factor is a whole node count >= 1, "
                f"got {self.factor}"
            )

    @property
    def end_s(self) -> float:
        return self.at_s + self.duration_s


@dataclass(frozen=True, kw_only=True)
class FaultPlan:
    """A named, ordered collection of faults to inject into one run."""

    name: str = "plan"
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        coerced = tuple(
            fault if isinstance(fault, FaultSpec) else FaultSpec(**dict(fault))
            for fault in self.faults
        )
        object.__setattr__(self, "faults", coerced)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "faults": [dataclasses.asdict(fault) for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> FaultPlan:
        return cls(name=data.get("name", "plan"),
                   faults=tuple(data.get("faults") or ()))

    @classmethod
    def random(
        cls,
        seed: int,
        duration_s: float = 40.0,
        max_faults: int = 3,
        nodes: int = 2,
        kinds: Sequence[str] = FAULT_KINDS,
    ) -> FaultPlan:
        """A seed-deterministic plan sized to a *duration_s*-second run.

        Faults start early enough (``at_s <= 0.6 * duration_s``) and end
        quickly enough that the run always has room to drain, so the
        property harness can require finite latency for *any* seed.
        """
        rng = random.Random(seed)
        count = rng.randint(1, max(1, max_faults))
        faults = []
        for _ in range(count):
            kind = rng.choice(list(kinds))
            at_s = round(rng.uniform(2.0, max(duration_s * 0.6, 3.0)), 3)
            duration = round(
                rng.uniform(0.25, min(5.0, max(duration_s * 0.15, 0.5))), 3
            )
            node = ALL_NODES if rng.random() < 0.2 else rng.randrange(max(nodes, 1))
            if kind == "checkpoint_timeout":
                factor = round(rng.uniform(0.3, 2.0), 3)
            elif kind == "kafka_backpressure":
                factor = round(rng.uniform(0.1, 1.5), 3)
            elif kind == "node_flap":
                factor = float(rng.randint(1, 3))
            else:
                factor = round(rng.uniform(0.1, 0.9), 3)
            faults.append(FaultSpec(kind=kind, at_s=at_s, duration_s=duration,
                                    node=node, factor=factor))
        faults.sort(key=lambda fault: (fault.at_s, fault.kind, fault.node))
        return cls(name=f"random-{seed}", faults=tuple(faults))

    def shrink(self) -> Iterator[FaultPlan]:
        """Strictly-simpler candidates: drop one entry, then halve one
        fault's duration or one membership change's node count.  Used to
        minimise a violating plan."""
        if len(self.faults) > 1:
            for index in range(len(self.faults)):
                rest = self.faults[:index] + self.faults[index + 1:]
                yield replace(self, name=f"{self.name}-shrunk", faults=rest)
        for index, fault in enumerate(self.faults):
            if fault.kind in MEMBERSHIP_KINDS:
                if fault.factor < 2:
                    continue
                halved = replace(fault, factor=float(fault.factor // 2))
            elif fault.duration_s > 0.5:
                halved = replace(fault, duration_s=round(fault.duration_s / 2, 6))
            else:
                continue
            yield replace(
                self,
                name=f"{self.name}-shrunk",
                faults=self.faults[:index] + (halved,) + self.faults[index + 1:],
            )


def shrink_failing(
    plan: FaultPlan,
    still_fails: Callable[[FaultPlan], bool],
    max_rounds: int = 40,
) -> FaultPlan:
    """Greedy minimisation: keep taking the first shrink candidate that
    still fails *still_fails* until none does (or *max_rounds* runs out).
    Returns the smallest failing plan found, for the failure report."""
    current = plan
    for _ in range(max_rounds):
        for candidate in current.shrink():
            if still_fails(candidate):
                current = candidate
                break
        else:
            return current
    return current


#: Ready-made plans accepted by ``repro run --faults <name>``.
PRESET_PLANS = (
    "crash",
    "flush-stall",
    "compaction-stall",
    "slow-disk",
    "checkpoint-timeout",
    "backpressure",
    "chaos",
    "combined",
    "node-crash",
    "node-flap",
    "net-partition",
)


def preset_plan(name: str, at_s: float = 30.0, duration_s: float = 2.0,
                node: int = 0) -> FaultPlan:
    """Build one of the :data:`PRESET_PLANS` by name."""
    if name == "crash":
        faults: Tuple[FaultSpec, ...] = (
            FaultSpec(kind="worker_crash", at_s=at_s, duration_s=duration_s,
                      node=node),
        )
    elif name == "flush-stall":
        faults = (FaultSpec(kind="flush_stall", at_s=at_s,
                            duration_s=max(duration_s, 4.0), node=ALL_NODES),)
    elif name == "compaction-stall":
        faults = (FaultSpec(kind="compaction_stall", at_s=at_s,
                            duration_s=max(duration_s, 8.0), node=ALL_NODES),)
    elif name == "slow-disk":
        faults = (FaultSpec(kind="slow_disk", at_s=at_s,
                            duration_s=max(duration_s, 3.0), node=node,
                            factor=0.25),)
    elif name == "checkpoint-timeout":
        faults = (FaultSpec(kind="checkpoint_timeout", at_s=at_s,
                            duration_s=max(duration_s, 20.0), factor=0.5),)
    elif name == "backpressure":
        faults = (FaultSpec(kind="kafka_backpressure", at_s=at_s,
                            duration_s=max(duration_s, 4.0), factor=0.4),)
    elif name == "chaos":
        faults = (
            FaultSpec(kind="worker_crash", at_s=at_s, duration_s=duration_s,
                      node=node),
            FaultSpec(kind="slow_disk", at_s=at_s + 10.0, duration_s=3.0,
                      node=ALL_NODES, factor=0.3),
            FaultSpec(kind="flush_stall", at_s=at_s + 20.0, duration_s=2.0,
                      node=ALL_NODES),
            FaultSpec(kind="kafka_backpressure", at_s=at_s + 28.0,
                      duration_s=4.0, factor=0.5),
        )
    elif name == "node-crash":
        faults = (FaultSpec(kind="node_crash", at_s=at_s,
                            duration_s=max(duration_s, 3.0), node=node),)
    elif name == "node-flap":
        faults = (FaultSpec(kind="node_flap", at_s=at_s,
                            duration_s=max(duration_s, 6.0), node=node,
                            factor=3.0),)
    elif name == "net-partition":
        faults = (FaultSpec(kind="network_partition", at_s=at_s,
                            duration_s=max(duration_s, 4.0), node=node),)
    elif name == "combined":
        # sequential windows with recovery gaps between them — the soak
        # harness asserts the tail returns to baseline inside each gap
        faults = (
            FaultSpec(kind="flush_stall", at_s=at_s,
                      duration_s=max(duration_s, 4.0), node=ALL_NODES),
            FaultSpec(kind="slow_disk", at_s=at_s + 20.0, duration_s=4.0,
                      node=ALL_NODES, factor=0.3),
            FaultSpec(kind="checkpoint_timeout", at_s=at_s + 40.0,
                      duration_s=8.0, factor=0.5),
            FaultSpec(kind="worker_crash", at_s=at_s + 60.0,
                      duration_s=2.0, node=node),
        )
    else:
        raise ConfigurationError(
            f"unknown preset fault plan {name!r}; expected one of "
            f"{', '.join(PRESET_PLANS)}"
        )
    return FaultPlan(name=name, faults=faults)


def load_fault_plan(value) -> FaultPlan:
    """Resolve *value* into a :class:`FaultPlan`.

    Accepts an existing plan, a ``to_dict`` mapping, a preset name from
    :data:`PRESET_PLANS`, inline JSON, or a path to a JSON file.
    """
    if isinstance(value, FaultPlan):
        return value
    if isinstance(value, dict):
        return FaultPlan.from_dict(value)
    text = str(value)
    if text in PRESET_PLANS:
        return preset_plan(text)
    if text.lstrip().startswith("{"):
        return FaultPlan.from_dict(json.loads(text))
    if os.path.exists(text):
        with open(text, encoding="utf-8") as handle:
            return FaultPlan.from_dict(json.load(handle))
    raise ConfigurationError(
        f"unknown fault plan {text!r}: expected a preset "
        f"({', '.join(PRESET_PLANS)}), inline JSON, or a JSON file path"
    )

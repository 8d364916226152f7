"""Declarative cluster membership and migration configuration.

A :class:`ClusterSpec` describes everything the elastic cluster layer
needs as plain, frozen data: how often nodes heartbeat, when the
phi-accrual failure detector suspects a silent node, how partition
transfers are paced (bandwidth, deadline, concurrency cap), and the
scheduled membership events (scale-out joins and graceful leaves).
Joined nodes take the job's per-node core count, and a node that comes
back from a crash or a healed partition is always rebalanced onto.
Like every other spec in this repo it round-trips through its
``to_dict``/``from_dict`` and hashes into the experiment cache key, so
an elastic run is exactly as reproducible and cacheable as a static
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError

__all__ = ["MEMBERSHIP_ACTIONS", "MembershipEvent", "ClusterSpec"]

#: Supported scheduled membership actions.
MEMBERSHIP_ACTIONS = ("join", "leave")


@dataclass(frozen=True, kw_only=True)
class MembershipEvent:
    """One scheduled membership change: *count* nodes join or leave at
    *at_s*.  Leaves retire the highest-named live nodes after draining
    their partitions through live migration."""

    action: str = "join"
    at_s: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.action not in MEMBERSHIP_ACTIONS:
            raise ConfigurationError(
                f"unknown membership action {self.action!r}; expected one of "
                f"{MEMBERSHIP_ACTIONS}"
            )
        if self.at_s < 0:
            raise ConfigurationError(f"membership at_s must be >= 0, got {self.at_s}")
        if self.count < 1:
            raise ConfigurationError(f"membership count must be >= 1, got {self.count}")

    def to_dict(self) -> dict:
        return {"action": self.action, "at_s": self.at_s, "count": self.count}

    @classmethod
    def from_dict(cls, data: dict) -> "MembershipEvent":
        return cls(
            action=data.get("action", "join"),
            at_s=float(data.get("at_s", 0.0)),
            count=int(data.get("count", 1)),
        )


@dataclass(frozen=True, kw_only=True)
class ClusterSpec:
    """Configuration of the elastic cluster layer for one run."""

    #: Expected node count at install time; 0 accepts whatever the app
    #: built (the paper's 4-node layout for the traffic app).
    initial_nodes: int = 0
    #: Heartbeat cadence; the detector samples on the same tick.
    heartbeat_interval_s: float = 0.5
    #: Phi-accrual suspicion threshold (Akka's default neighborhood);
    #: phi 8 means the silence had probability 1e-8 under the observed
    #: inter-arrival distribution.
    phi_threshold: float = 8.0
    #: Regularized lower bound on the inter-arrival stddev — with
    #: jitterless simulated heartbeats the sample stddev is zero and
    #: phi would be a step function.
    min_std_s: float = 0.05
    #: Heartbeat history window per node.
    history_window: int = 16
    #: Snapshot transfer bandwidth between nodes (and from the durable
    #: checkpoint store during failover).
    migration_bandwidth_mb_s: float = 200.0
    #: Stop-the-world pause at the ownership flip (the destination
    #: replays the delta and opens its local store).
    handover_pause_s: float = 0.05
    #: Per-migration transfer deadline: a transfer still in flight well
    #: past it is flagged by the ``migration-no-lost-state`` invariant.
    transfer_deadline_s: float = 15.0
    #: Concurrency cap on in-flight partition migrations.
    max_parallel_migrations: int = 4
    #: Scheduled membership changes.
    events: Tuple[MembershipEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.initial_nodes < 0:
            raise ConfigurationError("initial_nodes must be >= 0")
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError("heartbeat_interval_s must be > 0")
        if self.phi_threshold <= 0:
            raise ConfigurationError("phi_threshold must be > 0")
        if self.min_std_s <= 0:
            raise ConfigurationError("min_std_s must be > 0")
        if self.history_window < 2:
            raise ConfigurationError("history_window must be >= 2")
        if self.migration_bandwidth_mb_s <= 0:
            raise ConfigurationError("migration_bandwidth_mb_s must be > 0")
        if self.handover_pause_s < 0:
            raise ConfigurationError("handover_pause_s must be >= 0")
        if self.transfer_deadline_s <= 0:
            raise ConfigurationError("transfer_deadline_s must be > 0")
        if self.max_parallel_migrations < 1:
            raise ConfigurationError("max_parallel_migrations must be >= 1")
        coerced = tuple(
            event if isinstance(event, MembershipEvent)
            else MembershipEvent.from_dict(dict(event))
            for event in self.events
        )
        object.__setattr__(self, "events", coerced)

    def to_dict(self) -> dict:
        return {
            "initial_nodes": self.initial_nodes,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "phi_threshold": self.phi_threshold,
            "min_std_s": self.min_std_s,
            "history_window": self.history_window,
            "migration_bandwidth_mb_s": self.migration_bandwidth_mb_s,
            "handover_pause_s": self.handover_pause_s,
            "transfer_deadline_s": self.transfer_deadline_s,
            "max_parallel_migrations": self.max_parallel_migrations,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})

"""Declarative cluster membership and migration configuration.

A :class:`ClusterSpec` describes what varies between elastic runs as
plain, frozen data: how fast partition snapshots transfer, the deadline
the ``migration-no-lost-state`` invariant holds a transfer to, and the
scheduled membership events (scale-out joins and graceful leaves).  The
heartbeat cadence, the phi-accrual detector's tuning, the handover
pause and the migration concurrency cap are constants of
:mod:`repro.cluster.coordinator`.
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

    #: Snapshot transfer bandwidth between nodes (and from the durable
    #: checkpoint store during failover).
    migration_bandwidth_mb_s: float = 200.0
    #: Per-migration transfer deadline: a transfer still in flight well
    #: past it is flagged by the ``migration-no-lost-state`` invariant.
    transfer_deadline_s: float = 15.0
    #: Scheduled membership changes.
    events: Tuple[MembershipEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.migration_bandwidth_mb_s <= 0:
            raise ConfigurationError("migration_bandwidth_mb_s must be > 0")
        if self.transfer_deadline_s <= 0:
            raise ConfigurationError("transfer_deadline_s must be > 0")
        coerced = tuple(
            event if isinstance(event, MembershipEvent)
            else MembershipEvent.from_dict(dict(event))
            for event in self.events
        )
        object.__setattr__(self, "events", coerced)

    def to_dict(self) -> dict:
        return {
            "migration_bandwidth_mb_s": self.migration_bandwidth_mb_s,
            "transfer_deadline_s": self.transfer_deadline_s,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})

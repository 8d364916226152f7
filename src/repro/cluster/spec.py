"""Declarative cluster migration configuration.

A :class:`ClusterSpec` describes what varies between elastic runs as
plain, frozen data: how fast partition snapshots transfer and the
deadline the ``migration-no-lost-state`` invariant holds a transfer to.
Scheduled scale-out and scale-in are not part of it: they are
``node_join``/``node_leave`` entries of the run's
:class:`~repro.faults.FaultPlan`, on the same timeline as its faults.
The heartbeat cadence, the phi-accrual detector's tuning, the handover
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

from ..errors import ConfigurationError

__all__ = ["ClusterSpec"]


@dataclass(frozen=True, kw_only=True)
class ClusterSpec:
    """Configuration of the elastic cluster layer for one run."""

    #: Snapshot transfer bandwidth between nodes (and from the durable
    #: checkpoint store during failover).
    migration_bandwidth_mb_s: float = 200.0
    #: Per-migration transfer deadline: a transfer still in flight well
    #: past it is flagged by the ``migration-no-lost-state`` invariant.
    transfer_deadline_s: float = 15.0

    def __post_init__(self) -> None:
        if self.migration_bandwidth_mb_s <= 0:
            raise ConfigurationError("migration_bandwidth_mb_s must be > 0")
        if self.transfer_deadline_s <= 0:
            raise ConfigurationError("transfer_deadline_s must be > 0")

    def to_dict(self) -> dict:
        return {
            "migration_bandwidth_mb_s": self.migration_bandwidth_mb_s,
            "transfer_deadline_s": self.transfer_deadline_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        if data.get("events"):
            # dropping them would run a static cluster under an elastic
            # scenario's name
            raise ConfigurationError(
                "cluster 'events' are no longer read: schedule each as a "
                "fault-plan entry, FaultSpec(kind='node_join' or "
                "'node_leave', at_s=<at_s>, factor=<count>)"
            )
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})

"""Elastic cluster layer: membership, failure detection, migration.

See :mod:`repro.cluster.coordinator` for the moving parts.  Install on
a built job with::

    from repro.cluster import ClusterSpec, MembershipEvent, install_cluster

    install_cluster(job, ClusterSpec(events=(
        MembershipEvent(action="join", at_s=60.0, count=4),
        MembershipEvent(action="leave", at_s=150.0, count=4),
    )))
"""

from .coordinator import ClusterManager, install_cluster
from .detector import PhiAccrualDetector
from .spec import MEMBERSHIP_ACTIONS, ClusterSpec, MembershipEvent

__all__ = [
    "MEMBERSHIP_ACTIONS",
    "ClusterManager",
    "ClusterSpec",
    "MembershipEvent",
    "PhiAccrualDetector",
    "install_cluster",
]

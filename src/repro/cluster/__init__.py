"""Elastic cluster layer: membership, failure detection, migration.

See :mod:`repro.cluster.coordinator` for the moving parts.  Install on
a built job, then schedule scale-out and scale-in as fault-plan
entries (``factor`` is the node count)::

    from repro.cluster import ClusterSpec, install_cluster
    from repro.faults import FaultPlan, FaultSpec, inject_faults

    install_cluster(job, ClusterSpec())
    inject_faults(job, FaultPlan(name="elastic", faults=(
        FaultSpec(kind="node_join", at_s=60.0, factor=4.0),
        FaultSpec(kind="node_leave", at_s=150.0, factor=4.0),
    )))
"""

from .coordinator import ClusterManager, install_cluster
from .detector import PhiAccrualDetector
from .spec import ClusterSpec

__all__ = [
    "ClusterManager",
    "ClusterSpec",
    "PhiAccrualDetector",
    "install_cluster",
]

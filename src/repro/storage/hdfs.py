"""Asynchronous HDFS-style remote backup.

After each checkpoint Dracena ships the new SSTable files to HDFS for
persistence.  The transfer is asynchronous and off the worker's CPU, so
it does not participate in ShadowSync — but it is part of the system
the paper describes.
"""

from __future__ import annotations

from typing import List, Tuple

from ..sim.kernel import Simulator
from ..sim.resource import ProcessorSharingResource, ResourceTask

__all__ = ["HdfsBackup"]


class HdfsBackup:
    """A shared-uplink remote backup target."""

    def __init__(
        self,
        sim: Simulator,
        uplink_mb_s: float = 500.0,
        replication: int = 3,
        name: str = "hdfs",
    ) -> None:
        self.sim = sim
        self.name = name
        self.replication = replication
        self._uplink = ProcessorSharingResource(sim, f"{name}-uplink", uplink_mb_s)
        #: (checkpoint_id, bytes, submit_time, completion_time)
        self.completed: List[Tuple[int, int, float, float]] = []
        self._pending = 0

    def backup(self, checkpoint_id: int, nbytes: int) -> None:
        """Ship *nbytes* of SSTables for *checkpoint_id* asynchronously."""
        if nbytes <= 0:
            self.completed.append(
                (checkpoint_id, 0, self.sim.now, self.sim.now)
            )
            return
        submit = self.sim.now
        self._pending += 1

        def done(_task: ResourceTask) -> None:
            self._pending -= 1
            self.completed.append((checkpoint_id, nbytes, submit, self.sim.now))

        work_mb = nbytes * self.replication / 1e6
        self._uplink.submit(
            ResourceTask(
                name=f"backup-cp{checkpoint_id}",
                kind="backup",
                work=work_mb,
                demand=self._uplink.capacity,
                on_complete=done,
            )
        )

    @property
    def pending(self) -> int:
        return self._pending

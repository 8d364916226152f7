"""Simulated bounded thread pools.

RocksDB executes flushes and compactions on two dedicated background
pools (``max_background_flushes`` / ``max_background_compactions``).
The pool size is the paper's central *soft resource*: it bounds how many
maintenance jobs contend for the CPU at once (§4.2).

A :class:`SimJob` is a sequence of phases, each charging work to one
:class:`~repro.sim.resource.ProcessorSharingResource` — e.g. a flush is
a CPU phase (serialize the memtable) followed by an I/O phase (write the
SSTable through the storage backend).  A job occupies one pool slot from
the moment it starts executing until its last phase completes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Sequence

from ..errors import SimulationError
from .kernel import Simulator
from .resource import ProcessorSharingResource, ResourceTask

__all__ = ["JobPhase", "SimJob", "SimThreadPool"]


class JobPhase:
    """One phase of a job: *work* units on *resource* at ≤ *demand*."""

    __slots__ = ("resource", "work", "demand")

    def __init__(
        self, resource: ProcessorSharingResource, work: float, demand: float = 1.0
    ) -> None:
        self.resource = resource
        self.work = work
        self.demand = demand


class SimJob:
    """A multi-phase background job (flush or compaction)."""

    __slots__ = (
        "name",
        "kind",
        "phases",
        "on_complete",
        "metadata",
        "submit_time",
        "start_time",
        "end_time",
        "_phase_index",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        phases: Sequence[JobPhase],
        on_complete: Optional[Callable[["SimJob"], None]] = None,
        metadata: Optional[dict] = None,
    ) -> None:
        if not phases:
            raise SimulationError(f"job {name!r} has no phases")
        self.name = name
        self.kind = kind
        self.phases: Sequence[JobPhase] = list(phases)
        self.on_complete = on_complete
        self.metadata = metadata or {}
        self.submit_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self._phase_index = 0

    @property
    def queue_delay(self) -> Optional[float]:
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimJob {self.name!r} kind={self.kind} phase={self._phase_index}>"


class SimThreadPool:
    """A FIFO pool executing at most *size* jobs concurrently.

    The pool keeps no finished job.  Observers see each one at "end"
    (``MetricsCollector.watch_pool`` records it as a span); by then the
    job holds only its name, kind, metadata and timings, its callback
    and phases already released.
    """

    def __init__(self, sim: Simulator, name: str, size: int) -> None:
        if size < 1:
            raise SimulationError(f"pool {name!r} needs size >= 1, got {size}")
        self.sim = sim
        self.name = name
        self.size = size
        self._pending: deque = deque()
        self._active: List[SimJob] = []
        #: Pause depth (fault injection): > 0 freezes new job starts.
        self._paused = 0
        #: Observers called with (job, "submitted" | "start" | "end").
        self.observers: List[Callable[[SimJob, str], None]] = []
        #: Shared with the simulator; spans are emitted per job here so
        #: traces show queue→run→done for every flush/compaction.
        self.tracer = sim.tracer

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def submit(self, job: SimJob) -> SimJob:
        job.submit_time = self.sim.now
        if self.tracer.enabled:
            self.tracer.instant(
                f"queue:{job.name}",
                "pool",
                self.sim.now,
                tid=self.name,
                kind=job.kind,
                backlog=self.backlog,
            )
        self._notify(job, "submitted")
        self._pending.append(job)
        self._maybe_start()
        return job

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def backlog(self) -> int:
        """Jobs submitted but not finished."""
        return len(self._pending) + len(self._active)

    def resize(self, size: int) -> None:
        """Grow or shrink the pool; shrinking never preempts running jobs."""
        if size < 1:
            raise SimulationError(f"pool {self.name!r}: size must be >= 1")
        self.size = size
        self._maybe_start()

    @property
    def paused(self) -> bool:
        return self._paused > 0

    def pause(self) -> None:
        """Stop starting queued jobs; running jobs finish normally.

        Nestable — the pool resumes when every pause has been matched by
        a :meth:`resume`.  This is how a flush/compaction thread stall
        fault is injected.
        """
        self._paused += 1
        if self.tracer.enabled:
            self.tracer.instant(
                f"pause:{self.name}", "pool", self.sim.now,
                tid=self.name, depth=self._paused,
            )

    def resume(self) -> None:
        if self._paused == 0:
            raise SimulationError(f"pool {self.name!r} is not paused")
        self._paused -= 1
        if self.tracer.enabled:
            self.tracer.instant(
                f"resume:{self.name}", "pool", self.sim.now,
                tid=self.name, depth=self._paused,
            )
        if self._paused == 0:
            self._maybe_start()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _maybe_start(self) -> None:
        while self._pending and not self._paused and len(self._active) < self.size:
            job = self._pending.popleft()
            job.start_time = self.sim.now
            self._active.append(job)
            self._notify(job, "start")
            self._run_phase(job)

    def _run_phase(self, job: SimJob) -> None:
        phase = job.phases[job._phase_index]
        task = ResourceTask(
            name=f"{job.name}#p{job._phase_index}",
            kind=job.kind,
            work=phase.work,
            demand=phase.demand,
            on_complete=lambda _task, job=job: self._phase_done(job),
            metadata=job.metadata,
        )
        phase.resource.submit(task)

    def _phase_done(self, job: SimJob) -> None:
        job._phase_index += 1
        if job._phase_index < len(job.phases):
            self._run_phase(job)
            return
        job.end_time = self.sim.now
        self._active.remove(job)
        # A finished job keeps its timings and metadata only.  Its
        # callback and phases (a flush's closure, its frozen memtable)
        # die by refcount here instead of waiting for the collector.
        on_complete = job.on_complete
        job.on_complete = None
        job.phases = ()
        if self.tracer.enabled:
            queue_delay = job.queue_delay or 0.0
            if queue_delay > 0:
                self.tracer.complete(
                    f"queued:{job.name}",
                    "pool",
                    job.submit_time,
                    queue_delay,
                    tid=self.name,
                    kind=job.kind,
                )
            self.tracer.complete(
                job.name,
                job.kind,
                job.start_time,
                job.end_time - job.start_time,
                tid=self.name,
                queue_delay=queue_delay,
                **job.metadata,
            )
        self._notify(job, "end")
        if on_complete is not None:
            on_complete(job)
        self._maybe_start()

    def _notify(self, job: SimJob, what: str) -> None:
        for observer in self.observers:
            observer(job, what)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimThreadPool {self.name!r} size={self.size} "
            f"active={len(self._active)} pending={len(self._pending)}>"
        )

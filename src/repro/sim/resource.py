"""Processor-sharing resources: the millibottleneck substrate.

A :class:`ProcessorSharingResource` models a pool of identical capacity
units — CPU cores (units = cores) or a storage device (units = MB/s of
bandwidth) — shared by two kinds of consumers:

* **Tasks** (:class:`ResourceTask`): finite jobs with a fixed amount of
  work (CPU-seconds, megabytes) and a parallelism cap (a single
  compaction thread can use at most 1 core).  Flush and compaction jobs
  are tasks.
* **Flows** (:class:`FluidFlow`, see :mod:`repro.sim.fluid`): elastic,
  open-ended consumers representing message processing.  A flow exposes
  a demand (units it could use right now) that depends on its backlog.

Allocation is *proportional fair with caps*, which models an OS
fair-share scheduler across runnable threads: when the sum of demands
exceeds capacity every consumer is scaled by ``capacity / total_demand``.
This is exactly the mechanism behind the paper's millibottlenecks — a
burst of compaction tasks inflates total demand, the message-processing
flow's share collapses below its arrival rate, and queues build within
hundreds of milliseconds even though average utilization is moderate.

The resource keeps a piecewise-constant utilization timeline so
experiments can reproduce the paper's 50 ms point-in-time CPU plots
(Figure 6a).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import SimulationError
from .events import Event, LOW_PRIORITY
from .fluid import FlowSegment, _NOTIFY_TOLERANCE
from .kernel import Simulator

__all__ = ["ResourceTask", "ProcessorSharingResource"]

#: Queue lengths below this are treated as empty (float hygiene).
_EPS = 1e-9


class ResourceTask:
    """A finite job running on a :class:`ProcessorSharingResource`.

    Parameters
    ----------
    name:
        Human-readable identifier (shows up in activity spans).
    kind:
        Category used by metrics, e.g. ``"flush"`` or ``"compaction"``.
    work:
        Total work in resource units × seconds (CPU-seconds, MB).
    demand:
        Maximum units the task can consume at once (thread count × 1 core).
    """

    __slots__ = (
        "name",
        "kind",
        "work",
        "demand",
        "remaining",
        "rate",
        "on_complete",
        "start_time",
        "end_time",
        "metadata",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        work: float,
        demand: float = 1.0,
        on_complete: Optional[Callable[["ResourceTask"], None]] = None,
        metadata: Optional[dict] = None,
    ) -> None:
        if work <= 0:
            raise SimulationError(f"task {name!r} has non-positive work {work}")
        if demand <= 0:
            raise SimulationError(f"task {name!r} has non-positive demand {demand}")
        self.name = name
        self.kind = kind
        self.work = work
        self.demand = demand
        self.remaining = work
        self.rate = 0.0
        self.on_complete = on_complete
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.metadata = metadata or {}

    @property
    def done(self) -> bool:
        return self.end_time is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResourceTask {self.name!r} kind={self.kind} "
            f"remaining={self.remaining:.4f}/{self.work:.4f}>"
        )


class ProcessorSharingResource:
    """A capacity pool shared proportionally among tasks and flows."""

    def __init__(self, sim: Simulator, name: str, capacity: float) -> None:
        if capacity <= 0:
            raise SimulationError(f"resource {name!r} needs positive capacity")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._tasks: List[ResourceTask] = []
        self._flows: list = []  # List[FluidFlow]; untyped to avoid import cycle
        self._last_sync = sim.now
        #: Piecewise-constant utilization: list of ``(time, used_units)``.
        self.util_segments: List[tuple] = []
        #: Observers called with (task, "start"|"end") for span metrics.
        self.task_observers: List[Callable[[ResourceTask, str], None]] = []
        self._realloc_scheduled = False
        # Reallocation at the same timestamp with no intervening consumer
        # mutation is a pure no-op (sync integrates nothing, demands and
        # rates recompute to the same values, every record dedups); the
        # dirty flag lets reallocate() skip the recomputation outright.
        # Every mutation source — submit/complete, capacity changes, and
        # all flow updates (which funnel through request_reallocation) —
        # sets it.
        self._dirty = True
        self._last_realloc_time: Optional[float] = None
        # In the simulator's settle list (see _mark).
        self._enlisted = False
        # Completion wheel: one pending kernel event per resource, aimed
        # at the earliest task finish, instead of one event per task.  A
        # reallocation that changes every task's rate then cancels and
        # pushes a single event rather than N — the bulk of all heap
        # traffic in flush/compaction-heavy runs.  The event completes
        # every task that finishes at its instant (a checkpoint's flush
        # burst), so such a burst is one event and one reallocation.
        self._wheel_event: Optional[Event] = None
        self._wheel_task: Optional[ResourceTask] = None

    # ------------------------------------------------------------------
    # consumer registration
    # ------------------------------------------------------------------

    def add_flow(self, flow) -> None:
        """Attach a :class:`~repro.sim.fluid.FluidFlow` to this resource."""
        self._flows.append(flow)
        flow._attached(self)
        self._dirty = True
        self.reallocate()

    def submit(self, task: ResourceTask) -> ResourceTask:
        """Start *task* now; its completion callback fires when the
        (contention-dependent) work is done."""
        task.start_time = self.sim.now
        self._tasks.append(task)
        for observer in self.task_observers:
            observer(task, "start")
        self._mark()
        return task

    def _mark(self) -> None:
        """Note a task mutation: settle after the running callback.

        Inside :meth:`Simulator.run` the resource is enlisted and the
        loop reallocates it once after the dispatched callback returns,
        however many tasks that callback submitted or completed.
        Outside ``run()`` (job construction, unit tests) it reallocates
        at once.
        """
        self._dirty = True
        sim = self.sim
        if not sim._running:
            self.reallocate()
        elif not self._enlisted:
            self._enlisted = True
            sim._unsettled.append(self)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def set_capacity(self, capacity: float) -> None:
        """Change the pool's capacity (DVFS throttling, GC pauses).

        Running tasks and flows are immediately re-sized; the old
        capacity is not remembered — callers restore it themselves.
        """
        if capacity <= 0:
            raise SimulationError(f"resource {self.name!r}: capacity must be > 0")
        if capacity != self.capacity:
            self.capacity = capacity
            self._dirty = True
            self.reallocate()

    def request_reallocation(self) -> None:
        """Coalesce multiple same-time reallocation triggers into one."""
        self._dirty = True
        if self._realloc_scheduled:
            return
        self._realloc_scheduled = True
        self.sim._queue.push(self.sim.now, self._deferred_realloc, (), LOW_PRIORITY)

    def _deferred_realloc(self) -> None:
        self._realloc_scheduled = False
        self.reallocate()

    def reallocate(self) -> None:
        """Recompute every consumer's share; reschedule completions.

        Called whenever the consumer set or any demand changes: at once
        for flows and capacity, after the dispatched callback for task
        submits and completions (see :meth:`_mark`).
        """
        now = self.sim.now
        if not self._dirty and now == self._last_realloc_time:
            return
        self._dirty = False
        self._last_realloc_time = now
        # _sync_tasks(now), inlined (hot: every realloc passes here)
        elapsed = now - self._last_sync
        if elapsed > 0:
            for task in self._tasks:
                task.remaining = max(0.0, task.remaining - task.rate * elapsed)
        self._last_sync = now
        used = self._reallocate_scalar(now)
        # Utilization timeline: same-instant records overwrite, and
        # sub-1e-6 changes are not worth a new segment.
        used = min(used, self.capacity)
        segments = self.util_segments
        if segments and abs(segments[-1][0] - now) < _EPS:
            segments[-1] = (now, used)
        elif not segments or abs(segments[-1][1] - used) > 1e-6:
            segments.append((now, used))

    def _reallocate_scalar(self, now: float) -> float:
        """Share capacity among tasks and flows; return the units used.

        This is where the fluid model is defined: a flow's demand (its
        parallelism cap when backlogged, its keep-up rate otherwise),
        the escalation of underserved flows, each flow's serve rate and
        recorded segment, its queue-empty wake-up and the downstream
        rate notification.  It is one flat pass over the flows, without
        per-flow method calls, because it runs once per dispatched event
        that touched this resource's tasks, plus once per coalesced flow
        update.
        """
        flows = self._flows
        tasks = self._tasks
        task_demand = 0.0
        for task in tasks:
            task_demand += task.demand
        capacity = self.capacity

        if not flows:
            # Task-only pools (flush/compaction storage): no fluid
            # demand fixpoint, just proportional scaling of task rates.
            scale = 1.0 if task_demand <= capacity else capacity / task_demand
            used = 0.0
            for task in tasks:
                task.rate = task.demand * scale
                used += task.rate
            self._rewheel(now)
            return used

        demands = []
        keep_ups = []
        availables = []
        demand_sum = 0.0
        for flow in flows:
            flow.sync(now)
            unblocked = 1.0 - flow.blocked_fraction
            available = flow.max_parallelism * unblocked
            keep_up = (flow.arrival_rate * unblocked) * flow.work_per_message
            availables.append(available)
            keep_ups.append(keep_up)
            if flow._queue > _EPS:
                demand = available
            else:
                demand = min(available, keep_up)
            demands.append(demand)
            demand_sum += demand

        # Fixpoint over flow demand escalation: a flow that would be
        # underserved at its keep-up demand becomes backlogged and raises
        # its demand to its parallelism cap.  Demands only ever increase
        # inside this loop, so it terminates.  ``demand_sum`` is rebuilt
        # sequentially after any change — incremental adjustment would
        # round differently from a left-to-right ``sum(demands)``.
        for _ in range(len(flows) + 1):
            total = task_demand + demand_sum
            scale = 1.0 if total <= capacity else capacity / total
            changed = False
            for i, flow in enumerate(flows):
                if (
                    flow._queue <= _EPS
                    and demands[i] * scale + _EPS < keep_ups[i]
                    and availables[i] > demands[i] + _EPS
                ):
                    demands[i] = availables[i]
                    changed = True
            if not changed:
                break
            demand_sum = 0.0
            for demand in demands:
                demand_sum += demand

        total = task_demand + demand_sum
        scale = 1.0 if total <= capacity else capacity / total

        used = 0.0
        for task in tasks:
            task.rate = task.demand * scale
            used += task.rate
        self._rewheel(now)
        sim = self.sim
        for i, flow in enumerate(flows):
            alloc = demands[i] * scale
            flow._alloc = alloc
            wpm = flow.work_per_message
            arrival = flow.arrival_rate
            capacity_msgs = alloc / wpm
            servable = arrival * (1.0 - flow.blocked_fraction)
            queue = flow._queue  # synced to `now` in the demand pass
            if queue > _EPS:
                serve = capacity_msgs
            else:
                serve = min(servable, capacity_msgs)
            flow._serve_rate = serve

            # Record the segment (a same-instant record overwrites, as in
            # FluidFlow._record_segment); the history array cache is stale.
            flow._history = None
            segments = flow.segments
            segment = FlowSegment(
                now, arrival, serve, queue, flow.blocked_fraction, alloc
            )
            if segments and abs(segments[-1].time - now) < _EPS:
                segments[-1] = segment
            else:
                segments.append(segment)

            # Queue-empty wake-up.  When the drain instant is unchanged
            # (exact float equality only) the pending event is kept
            # instead of churning the heap.
            pending = flow._empty_event
            drain = serve - arrival
            if queue > _EPS and drain > _EPS:
                when = now + queue / drain
                if pending is None or pending._cancelled or pending.time != when:
                    if pending is not None:
                        pending.cancel()
                    flow._empty_event = sim._queue.push(when, flow._on_queue_empty)
            elif pending is not None:
                pending.cancel()
                flow._empty_event = None

            # Downstream stages hear only output changes beyond the
            # notify tolerance (bounds same-instant cascades).
            last = flow._last_notified_output
            reference = last if last > 1.0 else 1.0
            if abs(serve - last) / reference > _NOTIFY_TOLERANCE:
                flow._last_notified_output = serve
                for listener in flow.output_listeners:
                    listener(serve)

            used += serve * wpm
        return used

    def _sync_tasks(self, now: float) -> None:
        elapsed = now - self._last_sync
        if elapsed > 0:
            for task in self._tasks:
                task.remaining = max(0.0, task.remaining - task.rate * elapsed)
        self._last_sync = now

    def _rewheel(self, now: float) -> None:
        """Re-aim the completion wheel at the earliest task finish.

        Finish times are recomputed as ``now + remaining / rate`` exactly
        as the per-task schedule always did, so the wheel fires at the
        identical float instants; ties keep task-list (submission) order.
        Exact float equality elides the cancel+push when the minimum is
        unchanged — any rounding difference must reschedule (the model's
        tails are sensitive even to last-ulp shifts in completion times,
        so approximate elision is off-limits).
        """
        best = None
        best_task = None
        for task in self._tasks:
            rate = task.rate
            if rate <= 0:
                continue
            finish = now + task.remaining / rate
            if best is None or finish < best:
                best = finish
                best_task = task
        pending = self._wheel_event
        if best_task is None:
            if pending is not None:
                pending.cancel()
                self._wheel_event = None
            self._wheel_task = None
            return
        self._wheel_task = best_task
        if pending is not None:
            if not pending._cancelled and pending.time == best:
                return
            pending.cancel()
        # direct queue push: best >= now by construction, so the
        # schedule() past-time guard is redundant on this path
        self._wheel_event = self.sim._queue.push(best, self._wheel_fire)

    def _wheel_fire(self) -> None:
        """Complete the wheel's task and every task finishing with it.

        A task belongs to the burst when its finish, synced to ``now``
        and computed as in :meth:`_rewheel`, is ``now`` itself; burst
        members complete in task-list order after the wheel's task.  The
        kernel settles the resource once after the whole burst.
        """
        first = self._wheel_task
        self._wheel_event = None
        self._wheel_task = None
        now = self.sim.now
        self._sync_tasks(now)
        tasks = self._tasks
        burst = [first]
        for task in tasks:
            rate = task.rate
            if task is not first and rate > 0 and now + task.remaining / rate == now:
                burst.append(task)
        for task in burst:
            # an earlier on_complete may have removed a burst member
            if task in tasks:
                self._complete(task)

    def _complete(self, task: ResourceTask) -> None:
        task.remaining = 0.0
        task.end_time = self.sim.now
        task.rate = 0.0
        self._tasks.remove(task)
        for observer in self.task_observers:
            observer(task, "end")
        if task.on_complete is not None:
            task.on_complete(task)
        self._mark()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProcessorSharingResource {self.name!r} capacity={self.capacity} "
            f"tasks={len(self._tasks)} flows={len(self._flows)}>"
        )

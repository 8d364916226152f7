"""The stream job: construction, wiring and execution.

:class:`StreamJob` assembles a complete simulated deployment from
declarative pieces — stage specs, a source, cluster/cost/checkpoint
configs and a :class:`~repro.core.mitigation.MitigationPlan` — runs it,
and returns a :class:`StreamJobResult` with every measurement the
paper's figures need.

Wiring overview::

    source ──λ──> s0 flows ──rate──> s1 flows ──rate──> s2 flow
                   │   per (stage, node); share the node CPU with
                   │   flush / compaction tasks from the pools
    checkpoints ──> state backend ──> flush pool ──> L0 counters
                                           └──────> compaction pool
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import CheckpointConfig, ClusterConfig, CostModel
from ..core.mitigation import MitigationPlan
from ..errors import ConfigurationError, SimulationError
from ..lsm.options import LSMOptions
from ..lsm.sstable import SSTable
from ..metrics.collector import MetricsCollector
from ..metrics.percentiles import (
    compose_latencies,
    latency_from_segments,
    rates_on_grid,
    tail_summary,
    windowed_quantile,
)
from ..metrics.timeline import StepSeries
from ..sim.fluid import FluidFlow
from ..sim.kernel import Simulator
from ..sim.process import spawn
from ..storage.hdfs import HdfsBackup
from ..trace import Tracer
from .checkpoint import CheckpointCoordinator
from .sources import ConstantSource
from .stage import SOURCE_INPUT, Stage, StageInstance, StageSpec
from .state_backend import LSMStateBackend
from .worker import WorkerNode

__all__ = ["StreamJob", "StreamJobResult", "Subsystem"]

InitialL0 = Union[int, Callable[[StageInstance], int]]

#: Index standing for the external source in the stage input graph.
_SOURCE = -1

#: Simulated seconds between state-accounting ticks.
ACCOUNTING_DT = 1.0


class Subsystem:
    """What an add-on layer exposes once attached to a job.

    :meth:`StreamJob.attach` files the layer under a name; from there
    the engine finalizes it at end of run, the result lists its
    windows and report, and the millibottleneck detector labels spikes
    with the windows — none of them knowing which layer it is.
    """

    #: The ``SpikeAttribution`` field this layer's windows label
    #: (``"faults"``, ``"resilience"``, ``"cluster"``), or ``None``.
    channel: Optional[str] = None
    #: ``(label, start, end)`` spans for spike attribution.
    windows: Sequence[Tuple[str, float, float]] = ()

    def report(self) -> Optional[dict]:
        """JSON-plain digest filed under the layer's name in
        :meth:`StreamJobResult.summary` (``None`` = no section)."""
        return None

    def finalize(self, now: float) -> None:
        """Close open windows and books at end of run."""


class StreamJob:
    """A runnable streaming dataflow on a simulated cluster."""

    def __init__(
        self,
        stages: Sequence[StageSpec],
        source: ConstantSource,
        cluster: Optional[ClusterConfig] = None,
        cost: Optional[CostModel] = None,
        checkpoint: Optional[CheckpointConfig] = None,
        mitigation: Optional[MitigationPlan] = None,
        lsm_options_factory: Optional[Callable[[StageSpec, int], LSMOptions]] = None,
        initial_l0: Optional[Dict[str, InitialL0]] = None,
        seed: int = 0,
        coalesce_accounting: bool = True,
        tracer: Optional[Tracer] = None,
        tie_break: str = "fifo",
        skew: Sequence = (),
    ) -> None:
        if not stages:
            raise ConfigurationError("a job needs at least one stage")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ConfigurationError("stage names must be unique")

        self.sim = Simulator(seed, tracer=tracer, tie_break=tie_break)
        self.cluster = cluster or ClusterConfig()
        self.cost = cost or CostModel()
        self.checkpoint_config = checkpoint or CheckpointConfig()
        self.mitigation = mitigation or MitigationPlan.baseline()
        self.source = source
        #: Drive all per-instance accounting ticks from one batched
        #: process instead of one process per instance.  State-identical
        #: to the scalar path (the bodies run in the same order at the
        #: same timestamps) but dispatches one kernel event per tick
        #: instead of one per instance — the scalar path is kept for the
        #: determinism A/B test.
        self.coalesce_accounting = coalesce_accounting
        self._started = False
        #: Installed add-on layers by name, in install order (see
        #: :meth:`attach`).
        self.subsystems: Dict[str, Subsystem] = {}
        #: Bumped on every topology mutation (node join, partition
        #: relocation); the batched accounting loop rebuilds its
        #: precomputed entries when it observes a new epoch.
        self._topology_epoch = 0

        default_options = LSMOptions()
        flush_threads, compaction_threads = self.mitigation.pool_sizes(
            default_options.max_background_flushes,
            default_options.max_background_compactions,
        )
        #: (flush, compaction) pool sizes, reused for nodes added mid-run.
        self._pool_threads = (flush_threads, compaction_threads)

        # --- nodes -----------------------------------------------------
        self.nodes: List[WorkerNode] = [
            WorkerNode(
                self.sim,
                f"node{i}",
                cores=self.cluster.cores_per_node,
                storage=self.cluster.storage,
                flush_threads=flush_threads,
                compaction_threads=compaction_threads,
            )
            for i in range(self.cluster.num_nodes)
        ]
        self.hdfs = HdfsBackup(self.sim, self.cluster.backup_uplink_mb_s)

        # --- metrics ---------------------------------------------------
        self.collector = MetricsCollector()
        for node in self.nodes:
            self.collector.watch_resource(node.cpu)
            self.collector.watch_pool(node.flush_pool, node.name)
            self.collector.watch_pool(node.compaction_pool, node.name)

        # --- stages, instances, flows -----------------------------------
        self.stages: List[Stage] = []
        for spec in stages:
            stage = Stage(spec)
            for index in range(spec.parallelism):
                node = self.nodes[index % len(self.nodes)]
                options = (
                    lsm_options_factory(spec, index)
                    if lsm_options_factory is not None
                    else LSMOptions()
                )
                if spec.distinct_keys and options.live_data_cap_bytes is None:
                    options.live_data_cap_bytes = int(
                        1.3
                        * spec.distinct_keys_per_instance
                        * (spec.state_entry_bytes + options.entry_overhead_bytes)
                    )
                instance = StageInstance(spec, index, node, options)
                if instance.store is not None:
                    instance.store.tracer = self.sim.tracer
                stage.add_instance(instance)
                node.host(instance)
            self.stages.append(stage)

        # Flink runs one processing thread per task *slot*, and slots are
        # sized to the core count — so a node's stages share ``cores``
        # processing threads, split here in proportion to hosted
        # instances.  This cap is what lets a compaction burst halve the
        # processing share instead of being politely absorbed.
        instances_per_node: Dict[str, int] = {}
        for stage in self.stages:
            for node_name, hosted in stage.instances_by_node.items():
                instances_per_node[node_name] = (
                    instances_per_node.get(node_name, 0) + len(hosted)
                )
        for stage in self.stages:
            spec = stage.spec
            for node_name, hosted in stage.instances_by_node.items():
                node = self._node(node_name)
                slots = node.cores * len(hosted) / instances_per_node[node_name]
                flow = FluidFlow(
                    self.sim,
                    name=f"{spec.name}@{node_name}",
                    work_per_message=self.cost.cpu_seconds_per_message
                    * spec.work_multiplier,
                    max_parallelism=min(float(len(hosted)), slots),
                )
                stage.flows[node_name] = flow
                node.cpu.add_flow(flow)

        # --- state backend + checkpointing -------------------------------
        self.backend = LSMStateBackend(
            self.sim,
            self.cost,
            self.mitigation,
            incremental_checkpoints=self.checkpoint_config.incremental,
        )
        for stage in self.stages:
            self.backend.register_stage(stage)
        self.coordinator = CheckpointCoordinator(
            self.sim,
            self.checkpoint_config,
            self.stages,
            self.backend,
            collector=self.collector,
            hdfs=self.hdfs,
        )

        # --- input graph ---------------------------------------------------
        # Per stage, the indices of its upstream feeds (the external
        # source is index ``_SOURCE``).  ``inputs=None`` keeps the
        # classic linear chain; explicit inputs support branched and
        # two-input (windowed-join) topologies and multi-tenant jobs.
        name_to_index = {spec.name: i for i, spec in enumerate(stages)}
        self._inputs: List[List[int]] = []
        for index, spec in enumerate(stages):
            if spec.inputs is None:
                self._inputs.append([_SOURCE] if index == 0 else [index - 1])
                continue
            resolved: List[int] = []
            for ref in spec.inputs:
                if ref == SOURCE_INPUT:
                    resolved.append(_SOURCE)
                    continue
                upstream = name_to_index.get(ref)
                if upstream is None:
                    raise ConfigurationError(
                        f"stage {spec.name!r}: unknown input {ref!r}"
                    )
                if upstream >= index:
                    raise ConfigurationError(
                        f"stage {spec.name!r}: input {ref!r} must be declared "
                        "earlier in the stage list (the dataflow is acyclic)"
                    )
                resolved.append(upstream)
            self._inputs.append(resolved)
        #: Upstream stage index -> downstream stage indices it feeds.
        self._consumers: List[List[int]] = [[] for _ in stages]
        for index, feeds in enumerate(self._inputs):
            for upstream in feeds:
                if upstream != _SOURCE:
                    self._consumers[upstream].append(index)
        #: Stage indices ingesting directly from the external source.
        self._source_fed: List[int] = [
            index for index, feeds in enumerate(self._inputs) if _SOURCE in feeds
        ]
        if not self._source_fed:
            raise ConfigurationError("no stage ingests from the source")

        # --- rate wiring --------------------------------------------------
        # Downstream arrival-rate updates are coalesced and applied after
        # a short propagation delay (network hop + output batching).
        # Besides being physically honest, the delay breaks the
        # instantaneous feedback loop between stages sharing a CPU,
        # which could otherwise livelock at a single timestamp.
        self.rate_propagation_delay_s = 0.05
        self._downstream_update_pending = [False] * len(self.stages)
        for upstream_index, consumers in enumerate(self._consumers):
            if not consumers:
                continue
            stage = self.stages[upstream_index]
            for flow in stage.flows.values():
                flow.output_listeners.append(
                    lambda _rate, k=upstream_index: self._queue_downstream_update(k)
                )

        # --- ingest skew ---------------------------------------------------
        #: Schedule of ``(at_s, hot_fraction, hot_node)`` entries: from
        #: ``at_s`` on, the hot node of every source-fed stage receives
        #: ``hot_fraction`` of that stage's ingest while the remaining
        #: nodes share the rest evenly — the fluid-level model of
        #: hot-key skew (and, by re-pointing ``hot_node`` mid-run, of a
        #: hot spot that shifts).
        self._skew_schedule = tuple(
            (float(at), float(frac), int(node)) for at, frac, node in skew
        )
        for at, frac, _node in self._skew_schedule:
            if at < 0:
                raise ConfigurationError(f"skew entry at_s must be >= 0, got {at}")
            if not 0.0 < frac <= 1.0:
                raise ConfigurationError(
                    f"skew hot_fraction must be in (0, 1], got {frac}"
                )
        #: Active ``(hot_fraction, hot_node)`` skew, or ``None`` = even.
        self._skew_state: Optional[tuple] = None
        #: Last admitted (post-shedding) source rate.
        self._admitted_rate = 0.0

        if initial_l0:
            self._preload_l0(initial_l0)

        #: Admission controller over the source rate (``None`` =
        #: pass-through); anything with ``offer(rate) -> admitted``.
        self.admission = None
        #: Last offered (pre-admission) source rate.
        self.offered_rate = 0.0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def attach(self, name: str, subsystem: Subsystem) -> Subsystem:
        """File an add-on layer under *name*; a name installs once."""
        if name in self.subsystems:
            raise SimulationError(
                f"subsystem {name!r} is already installed on this job"
            )
        self.subsystems[name] = subsystem
        return subsystem

    def _node(self, name: str) -> WorkerNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise SimulationError(f"unknown node {name!r}")

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise ConfigurationError(f"unknown stage {name!r}")

    # ------------------------------------------------------------------
    # elastic topology (scale-out and partition moves)
    # ------------------------------------------------------------------

    def add_worker_node(self, name: str, cores: int) -> WorkerNode:
        """Add a fresh worker node mid-run (scale-out).

        The node starts empty — :meth:`relocate_instance` moves
        partitions onto it — and is watched by the metrics collector
        like the initial fleet.
        """
        if any(node.name == name for node in self.nodes):
            raise ConfigurationError(f"node {name!r} already exists")
        node = WorkerNode(
            self.sim,
            name,
            cores=cores,
            storage=self.cluster.storage,
            flush_threads=self._pool_threads[0],
            compaction_threads=self._pool_threads[1],
        )
        self.nodes.append(node)
        self.collector.watch_resource(node.cpu)
        self.collector.watch_pool(node.flush_pool, node.name)
        self.collector.watch_pool(node.compaction_pool, node.name)
        self._topology_epoch += 1
        return node

    def _ensure_flow(self, stage: Stage, node: WorkerNode) -> FluidFlow:
        """The stage's flow on *node*, created and attached on demand
        (a stage newly placed on a node needs a processing lane)."""
        flow = stage.flows.get(node.name)
        if flow is not None:
            return flow
        spec = stage.spec
        flow = FluidFlow(
            self.sim,
            name=f"{spec.name}@{node.name}",
            work_per_message=self.cost.cpu_seconds_per_message
            * spec.work_multiplier,
            max_parallelism=1.0,
        )
        stage.flows[node.name] = flow
        node.cpu.add_flow(flow)
        index = self.stages.index(stage)
        if self._consumers[index]:
            flow.output_listeners.append(
                lambda _rate, k=index: self._queue_downstream_update(k)
            )
        return flow

    def _rebalance_flow_caps(self, node: WorkerNode) -> None:
        """Re-split *node*'s processing slots over the stages it hosts
        (the same cores × hosted/total rule as construction)."""
        total = sum(
            len(stage.instances_by_node.get(node.name, ()))
            for stage in self.stages
        )
        for stage in self.stages:
            hosted = len(stage.instances_by_node.get(node.name, ()))
            flow = stage.flows.get(node.name)
            if flow is None or hosted == 0 or total == 0:
                continue
            slots = node.cores * hosted / total
            flow.max_parallelism = min(float(hosted), slots)
        node.cpu.request_reallocation()

    def relocate_instance(self, instance: StageInstance,
                          dest: WorkerNode) -> float:
        """Move *instance* to *dest* at the current event time.

        Host maps, the instance's node pointer, per-node flows and slot
        caps, and the stage's arrival split all change together.  When
        the source node stops hosting the stage its flow is zeroed and
        drained; the drained backlog (messages) is returned so the
        caller can replay it on the destination.
        """
        stage = self.stage(instance.spec.name)
        src = instance.node
        if src is dest:
            return 0.0
        hosted = stage.instances_by_node.get(src.name, [])
        if instance in hosted:
            hosted.remove(instance)
        src_emptied = not hosted
        if src_emptied:
            stage.instances_by_node.pop(src.name, None)
        if instance in src.instances:
            src.instances.remove(instance)
        instance.node = dest
        dest.host(instance)
        stage.instances_by_node.setdefault(dest.name, []).append(instance)
        self._ensure_flow(stage, dest)
        drained = 0.0
        if src_emptied:
            flow = stage.flows.get(src.name)
            if flow is not None:
                flow.set_arrival_rate(0.0)
                drained = flow.drop_backlog()
        self._topology_epoch += 1
        self._rebalance_flow_caps(src)
        self._rebalance_flow_caps(dest)
        self._refresh_arrival(self.stages.index(stage))
        stage.update_blocked(src.name)
        stage.update_blocked(dest.name)
        return drained

    def expected_stage_rate(self, index: int) -> float:
        """Steady input rate of stage *index* given the source rate.

        Follows the input graph: a chained stage sees its upstream's
        output (input × selectivity), a source-fed stage its share of
        the source rate, and a two-input stage the sum of its feeds.
        """
        rate = 0.0
        for upstream in self._inputs[index]:
            if upstream == _SOURCE:
                rate += (
                    self.source.steady_rate()
                    * self.stages[index].spec.source_fraction
                )
            else:
                rate += (
                    self.expected_stage_rate(upstream)
                    * self.stages[upstream].spec.selectivity
                )
        return rate

    def expected_flush_bytes(self, spec: StageSpec, stage_index: int) -> float:
        """Expected memtable bytes accumulated per checkpoint interval."""
        per_instance_rate = self.expected_stage_rate(stage_index) / spec.parallelism
        accumulated = (
            per_instance_rate
            * spec.state_entry_bytes
            * self.checkpoint_config.interval_s
        )
        if spec.distinct_keys:
            saturated = spec.distinct_keys_per_instance * spec.state_entry_bytes
            return min(accumulated, saturated)
        return accumulated

    def _preload_l0(self, initial_l0: Dict[str, InitialL0]) -> None:
        """Install synthetic L0 SSTables to set each store's counter
        phase — the 'initial condition' of §3.3."""
        for stage_index, stage in enumerate(self.stages):
            setting = initial_l0.get(stage.name)
            if setting is None:
                continue
            size = int(self.expected_flush_bytes(stage.spec, stage_index))
            for instance in stage.instances:
                if instance.store is None:
                    continue
                count = setting(instance) if callable(setting) else int(setting)
                trigger = instance.store.options.l0_compaction_trigger
                if count < 0 or count >= trigger:
                    raise ConfigurationError(
                        f"initial L0 count {count} must be in [0, {trigger})"
                    )
                for _ in range(count):
                    instance.store.levels.add_l0(
                        SSTable([], logical_bytes=size, level=0)
                    )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def set_source_rate(self, rate: float) -> None:
        """Offer a new source rate; admission control may clamp it."""
        self.offered_rate = rate
        if self.admission is not None:
            rate = self.admission.offer(rate)
        self._apply_source_rate(rate)

    def _apply_source_rate(self, rate: float) -> None:
        """Push an (already admitted) source rate into every source-fed
        stage's flows."""
        self._admitted_rate = rate
        for index in self._source_fed:
            self._refresh_arrival(index)

    def _node_shares(self, stage: Stage, skewed: bool) -> Dict[str, float]:
        """Per-node split of *stage*'s arrival rate (sums to 1.0)."""
        hosting = stage.nodes()
        if skewed and self._skew_state is not None and len(hosting) > 1:
            frac, hot = self._skew_state
            hot_name = hosting[hot % len(hosting)]
            rest = (1.0 - frac) / (len(hosting) - 1)
            return {
                name: (frac if name == hot_name else rest) for name in hosting
            }
        # weight by hosted instances — identical to the historical even
        # split while hosting is uniform (counts/total rounds to the
        # same double as 1/n when the true ratios are equal), and the
        # correct keyed split once rebalancing makes hosting uneven
        counts = {
            name: len(stage.instances_by_node[name]) for name in hosting
        }
        total = sum(counts.values())
        return {name: counts[name] / total for name in hosting}

    def _refresh_arrival(self, index: int) -> None:
        """Recompute stage *index*'s total input rate from its feeds and
        split it over hosting nodes (skew-weighted at the source)."""
        stage = self.stages[index]
        total = 0.0
        source_fed = False
        for upstream in self._inputs[index]:
            if upstream == _SOURCE:
                total += self._admitted_rate * stage.spec.source_fraction
                source_fed = True
            else:
                total += self.stages[upstream].total_output_rate()
        for node_name, share in self._node_shares(stage, source_fed).items():
            stage.flows[node_name].set_arrival_rate(total * share)

    def _set_skew(self, hot_fraction: float, hot_node: int) -> None:
        """Activate one skew-schedule entry and re-split the ingest."""
        self._skew_state = (hot_fraction, hot_node)
        for index in self._source_fed:
            self._refresh_arrival(index)

    def _queue_downstream_update(self, upstream_index: int) -> None:
        if self._downstream_update_pending[upstream_index]:
            return
        self._downstream_update_pending[upstream_index] = True
        self.sim.schedule_after(
            self.rate_propagation_delay_s, self._update_downstream, upstream_index
        )

    def _update_downstream(self, upstream_index: int) -> None:
        self._downstream_update_pending[upstream_index] = False
        for downstream in self._consumers[upstream_index]:
            self._refresh_arrival(downstream)

    def _account_loop(self, instance: StageInstance, stage: Stage):
        store = instance.store
        spec = stage.spec
        tick = 0
        while True:
            yield ACCOUNTING_DT
            tick += 1
            flow = stage.flows[instance.node.name]
            hosted = len(stage.instances_by_node[instance.node.name])
            rate = flow.arrival_rate / hosted
            updates = rate * ACCOUNTING_DT
            if updates <= 0:
                continue
            # Keyed state overwrites in place: a memtable grows until it
            # holds every distinct key this instance owns, then updates
            # stop adding bytes (see StageSpec.distinct_keys).
            if spec.distinct_keys:
                capacity = spec.distinct_keys_per_instance
                new_entries = min(updates, max(0.0, capacity - store.memtable_entries))
            else:
                new_entries = updates
            if new_entries >= 1.0:
                store.account(
                    int(round(new_entries)),
                    int(round(new_entries * spec.state_entry_bytes)),
                )
            key_space = int(spec.distinct_keys_per_instance) or 997
            key = f"{instance.name}:{tick % key_space}".encode()
            payload = b"x" * min(int(spec.state_entry_bytes) or 1, 1024)
            store.put(key, payload)
            if store.memtable_full and instance.flush_in_flight == 0:
                # Memtable-full flush is the LSM write path's own
                # backpressure; deferring it would grow the memtable
                # without bound.
                # repro: allow[DS201] declared write-path backpressure
                self.backend.flush_instance(instance, reason="memtable-full")

    def _account_entries(self) -> list:
        """Per-instance accounting constants for the batched loop.

        One tuple per stateful instance, in spawn order (stage order,
        then instance index) — the iteration order is what keeps the
        batched loop state-identical to one process per instance.
        """
        entries = []
        for stage in self.stages:
            if not stage.spec.stateful or stage.spec.state_entry_bytes <= 0:
                continue
            spec = stage.spec
            entry_bytes = spec.state_entry_bytes
            key_space = int(spec.distinct_keys_per_instance) or 997
            payload = b"x" * min(int(entry_bytes) or 1, 1024)
            capacity = spec.distinct_keys_per_instance if spec.distinct_keys else None
            for instance in stage.instances:
                entries.append((
                    instance,
                    instance.store,
                    stage.flows[instance.node.name],
                    len(stage.instances_by_node[instance.node.name]),
                    capacity,
                    entry_bytes,
                    key_space,
                    f"{instance.name}:".encode(),
                    payload,
                ))
        return entries

    def _account_all_loop(self, entries: list):
        """One kernel event per accounting tick for *all* instances.

        Body-for-body identical to :meth:`_account_loop` (same math,
        same order), with the per-tick constants precomputed.
        """
        dt = ACCOUNTING_DT
        backend_flush = self.backend.flush_instance
        epoch = self._topology_epoch
        tick = 0
        while True:
            yield dt
            tick += 1
            if self._topology_epoch != epoch:
                # a node joined or a partition moved: the precomputed
                # flow/hosted-count references are stale — rebuild
                entries = self._account_entries()
                epoch = self._topology_epoch
            for (instance, store, flow, hosted, capacity, entry_bytes,
                 key_space, key_prefix, payload) in entries:
                updates = flow.arrival_rate / hosted * dt
                if updates <= 0:
                    continue
                if capacity is not None:
                    new_entries = min(
                        updates, max(0.0, capacity - store.memtable_entries)
                    )
                else:
                    new_entries = updates
                if new_entries >= 1.0:
                    store.account(
                        int(round(new_entries)),
                        int(round(new_entries * entry_bytes)),
                    )
                store.put(key_prefix + b"%d" % (tick % key_space), payload)
                if store.memtable_full and instance.flush_in_flight == 0:
                    # Same memtable-full backpressure as the
                    # per-instance accounting loop.
                    # repro: allow[DS201] declared write-path backpressure
                    backend_flush(instance, reason="memtable-full")

    def run(self, duration: float) -> StreamJobResult:
        """Run for *duration* simulated seconds and collect results.

        Arms the source, checkpoints and accounting loops, dispatches
        events up to *duration*, then closes out flow histories and
        finalizes every subsystem.  A job runs once.
        """
        if self._started:
            raise SimulationError("a StreamJob can only be run once")
        self._started = True
        bind = getattr(self.source, "bind", None)
        if callable(bind):
            # Closed-loop clients need the job to observe backlog.
            bind(self)
        self.source.start(self.sim, self.set_source_rate)
        for at_s, hot_fraction, hot_node in self._skew_schedule:
            self.sim.schedule(at_s, self._set_skew, hot_fraction, hot_node)
        self.coordinator.start()
        if self.coalesce_accounting:
            entries = self._account_entries()
            if entries:
                spawn(self.sim, self._account_all_loop(entries), name="account-all")
        else:
            for stage in self.stages:
                if not stage.spec.stateful or stage.spec.state_entry_bytes <= 0:
                    continue
                for instance in stage.instances:
                    spawn(
                        self.sim,
                        self._account_loop(instance, stage),
                        name=f"account-{instance.name}",
                    )
        self.sim.run(until=duration)
        for stage in self.stages:
            for flow in stage.flows.values():
                flow.finalize(self.sim.now)
        for subsystem in self.subsystems.values():
            subsystem.finalize(self.sim.now)
        return StreamJobResult(self, duration)


class StreamJobResult:
    """Measurements of one finished run."""

    def __init__(self, job: StreamJob, duration: float) -> None:
        self.job = job
        self.duration = duration
        self.collector = job.collector
        self.coordinator = job.coordinator
        self.spans = job.collector.spans
        #: Memoized ``(start, end, dt) -> (times, latency, weights)``.
        #: The latency inversion is the single most repeated analysis:
        #: tails, the coarse and fine timelines and the run summary all
        #: ask for the same grid.  Callers treat the arrays as
        #: read-only.
        self._latency_cache: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # latency
    # ------------------------------------------------------------------

    def stage_latency(
        self, stage_name: str, start: float, end: float, dt: float = 0.01
    ):
        """Mean-over-nodes queueing latency of one stage on a grid."""
        stage = self.job.stage(stage_name)
        latencies = []
        weights = None
        times = None
        for flow in stage.flows.values():
            t, lat, w = latency_from_segments(flow.history(), start, end, dt)
            latencies.append(lat)
            times = t
            weights = w if weights is None else weights + w
        return times, np.mean(latencies, axis=0), weights

    def end_to_end_latency(
        self, start: float = 0.0, end: Optional[float] = None, dt: float = 0.01
    ):
        """End-to-end latency for arrivals on a grid.

        Returns ``(times, latency_seconds, arrival_weights)``; the
        constant pipeline overhead (:attr:`CostModel.base_latency_seconds`)
        is included.
        """
        if end is None:
            end = self.duration
        key = (start, end, dt)
        cached = self._latency_cache.get(key)
        if cached is not None:
            return cached
        per_stage = []
        weights = None
        times = None
        for stage in self.job.stages:
            t, lat, w = self.stage_latency(stage.name, start, end, dt)
            per_stage.append(lat)
            times = t
            if weights is None:
                weights = w
        total = compose_latencies(times, per_stage)
        result = times, total + self.job.cost.base_latency_seconds, weights
        self._latency_cache[key] = result
        return result

    def latency_timeline(
        self,
        quantile: float = 0.999,
        window: float = 0.05,
        start: float = 0.0,
        end: Optional[float] = None,
        dt: float = 0.01,
    ):
        """The paper's per-window pXX timeline (Figures 3, 8, 16–20)."""
        times, latency, weights = self.end_to_end_latency(start, end, dt)
        return windowed_quantile(times, latency, window, quantile, weights)

    def tail_summary(self, start: float = 0.0, end: Optional[float] = None) -> dict:
        times, latency, weights = self.end_to_end_latency(start, end)
        return tail_summary(latency, weights)

    # ------------------------------------------------------------------
    # resources and activities
    # ------------------------------------------------------------------

    def cpu_series(self, node: Optional[str] = None) -> StepSeries:
        return self.collector.cpu_series(node)

    def queue_series(self, stage_name: str, start: float, end: float, dt: float = 0.05):
        """Total backlog (messages) of one stage over time."""
        stage = self.job.stage(stage_name)
        times = np.arange(start, end, dt)
        total = np.zeros(len(times))
        for flow in stage.flows.values():
            _t, _lam, _mu, queue = rates_on_grid(flow.history(), start, end, dt)
            total += queue
        return times, total

    def concurrency(self, kind: str, start: float, end: float, dt: float = 0.05,
                    stage: Optional[str] = None):
        return self.spans.concurrency_series(start, end, dt, kind=kind, stage=stage)

    def checkpoint_stats(self):
        return self.collector.checkpoint_stats()

    def flush_spans(self, **filters):
        return self.spans.spans(kind="flush", **filters)

    def compaction_spans(self, **filters):
        return self.spans.spans(kind="compaction", **filters)

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------

    @property
    def tracer(self):
        """The run's tracer (the no-op tracer on untraced runs)."""
        return self.job.sim.tracer

    def export_trace(
        self,
        path,
        format: str = "jsonl",
        cpu_dt: float = 0.05,
        latency_window: float = 0.05,
    ) -> None:
        """Write the run's trace to *path*.

        ``format`` is ``"jsonl"`` (the stable interchange schema) or
        ``"chrome"`` (Chrome trace-event JSON, loadable in Perfetto).
        On top of the live events the export appends derived counter
        tracks — per-``cpu_dt`` mean CPU demand per node and the
        windowed p99.9 latency timeline — so a trace viewer shows the
        paper's full causal chain on one screen.
        """
        from ..trace import Tracer as _Tracer

        export = _Tracer()
        export.extend(self.tracer.events)
        for node in self.collector.node_names():
            times, values = self.cpu_series(node).on_grid(0.0, self.duration, cpu_dt)
            for t, v in zip(times.tolist(), values.tolist()):
                export.counter("cpu", "cpu", t, v, tid=node)
        times, p999 = self.latency_timeline(window=latency_window)
        for t, v in zip(times.tolist(), p999.tolist()):
            export.counter("latency_p999", "latency", t, v, tid="latency")
        if format == "chrome":
            export.write_chrome(path)
        elif format == "jsonl":
            export.write_jsonl(path)
        else:
            raise ValueError(f"unknown trace format {format!r}")

    # ------------------------------------------------------------------
    # installed subsystems
    # ------------------------------------------------------------------

    def windows(self) -> Dict[str, List[tuple]]:
        """``{channel: [(label, start, end), ...]}`` — every installed
        subsystem's attribution windows, grouped by the
        ``SpikeAttribution`` channel they label."""
        windows: Dict[str, List[tuple]] = {}
        for subsystem in self.job.subsystems.values():
            if subsystem.channel is not None:
                windows.setdefault(subsystem.channel, []).extend(subsystem.windows)
        return windows

    def reports(self) -> Dict[str, dict]:
        """``{name: report()}`` of every installed subsystem that
        reports a digest."""
        reports = {}
        for name, subsystem in self.job.subsystems.items():
            report = subsystem.report()
            if report is not None:
                reports[name] = report
        return reports

    @property
    def fault_events(self) -> List[dict]:
        """Injected-fault events (empty on fault-free runs)."""
        injector = self.job.subsystems.get("faults")
        return [] if injector is None else [dict(e) for e in injector.events]

    @property
    def invariant_violations(self) -> List[dict]:
        """Recorded invariant violations (empty when no checker ran)."""
        checker = self.job.subsystems.get("invariants")
        return [] if checker is None else checker.to_dicts()

    def millibottleneck_report(self, start: float = 0.0,
                               end: Optional[float] = None, **kwargs):
        """Run the §3 millibottleneck detector over this run's trace
        and measurements (see :mod:`repro.analysis.millibottleneck`)."""
        from ..analysis.millibottleneck import analyze_result

        return analyze_result(self, start=start, end=end, **kwargs)

    def summary(self, start: float = 0.0, end: Optional[float] = None) -> dict:
        """A JSON-serializable digest of the run (tails, activity
        counts, checkpoint/backup stats, stalls) for dashboards and the
        CLI."""
        if end is None:
            end = self.duration
        completed = self.coordinator.completed
        summary = {
            "duration_s": self.duration,
            "measured_span": [start, end],
            "tails_s": self.tail_summary(start=start, end=end),
            "checkpoints": {
                "triggered": len(self.coordinator.records),
                "completed": len(completed),
                "mean_duration_s": (
                    sum(r.duration for r in completed) / len(completed)
                    if completed
                    else None
                ),
                "total_bytes": sum(r.bytes for r in completed),
            },
            "activities": {
                "flushes": self.spans.count(kind="flush"),
                "compactions": self.spans.count(kind="compaction"),
                "compaction_input_bytes": self.spans.total_input_bytes(
                    kind="compaction"
                ),
                "flush_compaction_overlap_s": self.spans.overlap_seconds(
                    "flush", "compaction", start, end
                ),
            },
            "write_stall_events": self.job.backend.write_stall_events,
            "backup_pending": self.job.hdfs.pending,
            "mean_cpu_cores": self.cpu_series(None).time_average(start, end),
        }
        summary.update(self.reports())
        return summary

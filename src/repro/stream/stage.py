"""Stages and stage instances of a streaming dataflow.

A *stage* (Flink: operator) runs as many parallel *stage instances*
(Flink: subtasks), each owning a keyed slice of the stage's state in its
own embedded :class:`~repro.lsm.store.LSMStore` — one RocksDB instance
per stateful subtask, exactly as Flink's RocksDB state backend does.
Per-node message processing of a stage is modelled by one
:class:`~repro.sim.fluid.FluidFlow`; an instance whose memtable is being
flushed is *blocked* (stop-the-world), raising the flow's blocked
fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..lsm.options import LSMOptions
from ..lsm.store import LSMStore
from ..sim.fluid import FluidFlow

__all__ = ["SOURCE_INPUT", "StageSpec", "StageInstance", "Stage"]

#: Sentinel name in :attr:`StageSpec.inputs` standing for the job's
#: external source (Kafka) rather than another stage.
SOURCE_INPUT = "source"


@dataclass(frozen=True)
class StageSpec:
    """Static description of one pipeline stage."""

    name: str
    #: Number of parallel instances (64/64/1 in the paper's Figure 4).
    parallelism: int
    #: Size of one keyed state entry (a car object, a street record).
    state_entry_bytes: float = 0.0
    #: Number of distinct state keys across the whole stage (60 000 cars,
    #: ~10 000 streets).  Updates overwrite in place, so a memtable's
    #: size *saturates* at the instance's share of this — which is why
    #: flush sizes are roughly interval-independent in the paper's
    #: overwrite-heavy workload.  0 means unbounded (append-only state).
    distinct_keys: int = 0
    #: Output messages emitted per input message.
    selectivity: float = 1.0
    #: Relative CPU cost of this stage's per-message work.
    work_multiplier: float = 1.0
    #: Stateless stages skip checkpoint flushes entirely.
    stateful: bool = True
    #: Upstream wiring.  ``None`` keeps the classic linear chain (the
    #: previous stage in the list; the external source for the first
    #: stage).  An explicit tuple names the upstream stages whose output
    #: feeds this one — :data:`SOURCE_INPUT` (``"source"``) stands for
    #: the job's external source.  A stage naming two upstream stages is
    #: a *two-input* operator (windowed join): its arrival rate is the
    #: sum of both branches' output rates.
    inputs: Optional[Tuple[str, ...]] = None
    #: Fraction of the external source rate this stage ingests when it
    #: is source-fed (two branch stages splitting one topic use e.g.
    #: 0.7 / 0.3; tenants sharing a cluster use 1/tenants each).
    source_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ConfigurationError(f"stage {self.name!r}: parallelism >= 1")
        if self.selectivity < 0:
            raise ConfigurationError(f"stage {self.name!r}: selectivity >= 0")
        if self.state_entry_bytes < 0:
            raise ConfigurationError(f"stage {self.name!r}: state bytes >= 0")
        if self.distinct_keys < 0:
            raise ConfigurationError(f"stage {self.name!r}: distinct_keys >= 0")
        if self.work_multiplier <= 0:
            raise ConfigurationError(f"stage {self.name!r}: work multiplier > 0")
        if self.inputs is not None:
            object.__setattr__(self, "inputs", tuple(self.inputs))
            if not self.inputs:
                raise ConfigurationError(
                    f"stage {self.name!r}: explicit inputs must not be empty"
                )
            if len(set(self.inputs)) != len(self.inputs):
                raise ConfigurationError(
                    f"stage {self.name!r}: duplicate input names"
                )
            if self.name in self.inputs:
                raise ConfigurationError(
                    f"stage {self.name!r}: a stage cannot feed itself"
                )
        if not 0.0 < self.source_fraction <= 1.0:
            raise ConfigurationError(
                f"stage {self.name!r}: source_fraction must be in (0, 1]"
            )

    @property
    def distinct_keys_per_instance(self) -> float:
        return self.distinct_keys / self.parallelism if self.distinct_keys else 0.0

    def scaled(self, divisor: int) -> "StageSpec":
        """A 1/*divisor* slice of this stage for sharded execution.

        Parallelism and the key space shrink together so the per-instance
        key share — and therefore memtable saturation and flush sizes —
        are unchanged.  A singleton stage (parallelism 1, e.g. the
        traffic job's global ranking stage) is replicated into every
        shard with its 1/*divisor* key share; any other parallelism must
        divide evenly or the slice would not mirror the full deployment.
        """
        if divisor == 1:
            return self
        if divisor < 1:
            raise ConfigurationError(f"stage {self.name!r}: divisor >= 1")
        if self.parallelism == 1:
            parallelism = 1
        elif self.parallelism % divisor == 0:
            parallelism = self.parallelism // divisor
        else:
            raise ConfigurationError(
                f"stage {self.name!r}: parallelism {self.parallelism} "
                f"not divisible by {divisor} shards"
            )
        return replace(
            self,
            parallelism=parallelism,
            distinct_keys=self.distinct_keys // divisor,
        )


class StageInstance:
    """One parallel subtask with its embedded LSM store."""

    def __init__(
        self,
        spec: StageSpec,
        index: int,
        node,
        lsm_options: Optional[LSMOptions] = None,
    ) -> None:
        self.spec = spec
        self.index = index
        self.node = node
        self.store: Optional[LSMStore] = None
        if spec.stateful:
            self.store = LSMStore(
                lsm_options or LSMOptions(), name=f"{spec.name}/{index}"
            )
        self.blocked = False
        self.flush_in_flight = 0
        #: Write-stall severity: 0 none, 0.5 slowdown, 1.0 stopped.
        self.stall_level = 0.0
        #: Set while the hosting worker is down (fault injection); fully
        #: freezes this instance's share of the stage's processing.
        self.crashed = False
        #: Bumped by :meth:`abandon_flushes`; in-flight flush jobs
        #: carry the epoch they started under and their completion is
        #: discarded when it no longer matches.
        self.restart_epoch = 0

    @property
    def name(self) -> str:
        return f"{self.spec.name}/{self.index}"

    def abandon_flushes(self) -> None:
        """Disown every in-flight flush (a move off a dead host): a
        zombie flush still holds its pool slot, so bump the epoch and
        the state backend discards its completion instead of corrupting
        the reset bookkeeping."""
        self.restart_epoch += 1
        self.flush_in_flight = 0
        self.blocked = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StageInstance {self.name} on {self.node.name}>"


class Stage:
    """A stage with its instances and per-node flows."""

    def __init__(self, spec: StageSpec) -> None:
        self.spec = spec
        self.instances: List[StageInstance] = []
        #: node name -> FluidFlow modelling this stage's processing there.
        self.flows: Dict[str, FluidFlow] = {}
        #: node name -> instances hosted there.
        self.instances_by_node: Dict[str, List[StageInstance]] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    def add_instance(self, instance: StageInstance) -> None:
        self.instances.append(instance)
        self.instances_by_node.setdefault(instance.node.name, []).append(instance)

    def nodes(self) -> List[str]:
        return sorted(self.instances_by_node)

    def blocked_fraction(self, node_name: str) -> float:
        """Fraction of this stage's processing frozen on *node_name* —
        stop-the-world flushes plus LSM write stalls."""
        hosted = self.instances_by_node.get(node_name, [])
        if not hosted:
            return 0.0
        blocked = 0.0
        for inst in hosted:
            if inst.blocked or inst.crashed:
                blocked += 1.0
            else:
                blocked += inst.stall_level
        return blocked / len(hosted)

    def update_blocked(self, node_name: str) -> None:
        """Push the current blocked fraction into the node's flow."""
        flow = self.flows.get(node_name)
        if flow is not None:
            flow.set_blocked_fraction(self.blocked_fraction(node_name))

    def total_output_rate(self) -> float:
        """Aggregate downstream rate: served msgs/s × selectivity."""
        return self.spec.selectivity * sum(
            flow.serve_rate for flow in self.flows.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stage {self.name} x{self.spec.parallelism}>"

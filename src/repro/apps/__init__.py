"""The benchmark applications, one :class:`App` row each.

An app is data: its stage table, its deployment shape, its named
initial-L0 presets and its calibrated cost model.
:func:`repro.scenarios.run.build_scenario_job` is the one builder that
turns a :class:`~repro.scenarios.spec.ScenarioSpec` naming an app into a
runnable :class:`~repro.stream.engine.StreamJob`.

``traffic`` — the real-time traffic-jam ranking of Figure 4, over
connected-car events in metropolitan Tokyo on 4 worker nodes x 16
cores: 64 car-object instances (``s0``, one ~1 kB state object per car,
60 000 cars), 64 street-object instances (``s1``, a ~2.5 kB aggregate
per street, ~10 000 streets) emitting periodic ranking updates, and one
city-wide top-K ranking instance (``s2``, small state, light work).

``wordcount`` — the Kafka Streams WordCount of §5.2 on one dedicated
16-core node: a stateless ``split`` and a ``count`` step keeping one
keyed counter per word in RocksDB (~60 k effective vocabulary at ~200 B
of state per word), 64 partitions to use every core.  Kafka Streams
flushes its stores on each commit, so the commit interval plays the
checkpoint interval's role.

``join`` — a windowed ad-attribution join with downstream
sessionization on the traffic deployment's 4 x 16 cores.  Impressions
(~70 % of one shared topic) and clicks (~30 %) meet in a keyed join
that buffers every event for the window, so its working set is ``rate x
window_s`` *distinct* keys: memtables fill with fresh entries instead of
saturating, flushes are large, and both input branches must align on
the same checkpoint barrier::

    source (1.0) --0.7--> impressions (32, stateless parse) \\
                                                             join (64, windowed state)
    source       --0.3--> clicks      (32, stateless parse) /      |
                                                                sessions (16, keyed state)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..config import CostModel
from ..stream.stage import SOURCE_INPUT, StageSpec

__all__ = ["App", "APPS"]


@dataclass(frozen=True)
class App:
    """One benchmark application: what a scenario's ``app`` names."""

    stages: Tuple[StageSpec, ...]
    num_nodes: int
    cores_per_node: int
    #: Named initial L0-counter conditions (§3.3): stage -> L0 files at
    #: start; a stage left out starts empty.
    initial_l0: Dict[str, Dict[str, int]] = field(
        default_factory=lambda: {"aligned": {}}
    )
    cost: CostModel = CostModel()
    #: The stage whose key space is ``rate x window_s``, if any.
    window_stage: Optional[str] = None

    def shard_unit(self) -> Tuple[int, str]:
        """What a shard count must divide: a multi-node deployment is
        sliced by nodes, a single node by cores."""
        if self.num_nodes > 1:
            return self.num_nodes, "node groups"
        return self.cores_per_node, "cores"


APPS: Dict[str, App] = {
    "traffic": App(
        stages=(
            StageSpec(name="s0", parallelism=64, state_entry_bytes=1000.0,
                      distinct_keys=60000, selectivity=1.0),
            StageSpec(name="s1", parallelism=64, state_entry_bytes=2500.0,
                      distinct_keys=10000, selectivity=0.01),
            StageSpec(name="s2", parallelism=1, state_entry_bytes=200.0,
                      distinct_keys=1000, selectivity=0.0, work_multiplier=0.5),
        ),
        num_nodes=4,
        cores_per_node=16,
        # "aligned" puts every stage on the same phase, the statistical
        # ShadowSync worst case; "staggered" offsets s0 by half a cycle,
        # producing the alternating per-stage bursts of §3.2 (Fig. 6(d)).
        initial_l0={"aligned": {}, "staggered": {"s0": 2}},
    ),
    "wordcount": App(
        stages=(
            StageSpec(name="split", parallelism=64, state_entry_bytes=0.0,
                      selectivity=1.0, stateful=False),
            StageSpec(name="count", parallelism=64, state_entry_bytes=200.0,
                      distinct_keys=60000, selectivity=0.0),
        ),
        num_nodes=1,
        cores_per_node=16,
        # 25 k msg/s through two steps on 16 cores at ~70 % average CPU
        # (the paper's reported Kafka-node utilization).
        cost=CostModel(cpu_seconds_per_message=16 * 0.70 / (2 * 25000.0)),
    ),
    "join": App(
        stages=(
            StageSpec(name="impressions", parallelism=32, selectivity=1.0,
                      stateful=False, work_multiplier=0.5,
                      inputs=(SOURCE_INPUT,), source_fraction=0.7),
            StageSpec(name="clicks", parallelism=32, selectivity=1.0,
                      stateful=False, work_multiplier=0.5,
                      inputs=(SOURCE_INPUT,), source_fraction=0.3),
            StageSpec(name="join", parallelism=64, state_entry_bytes=400.0,
                      selectivity=0.3, work_multiplier=1.5,
                      inputs=("impressions", "clicks")),
            StageSpec(name="sessions", parallelism=16, state_entry_bytes=800.0,
                      distinct_keys=50_000, selectivity=0.0,
                      work_multiplier=0.5, inputs=("join",)),
        ),
        num_nodes=4,
        cores_per_node=16,
        window_stage="join",
    ),
}

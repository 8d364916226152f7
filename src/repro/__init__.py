"""ShadowSync reproduction (Middleware '22).

A discrete-event reproduction of *"ShadowSync: Latency Long Tail caused
by Hidden Synchronization in Real-time LSM-tree based Stream Processing
Systems"*: a functional LSM-tree store, a Flink-like stream engine with
continuous checkpointing, processor-sharing CPU models that reproduce
millibottlenecks, the paper's mitigation methods, and a benchmark
harness regenerating every table and figure of the evaluation.

Quickstart::

    from repro.api import MitigationPlan, build_scenario_job, scenario

    spec = scenario("baseline_traffic",
                    mitigation=MitigationPlan.paper_solution())
    result = build_scenario_job(spec, seed=1).run(200.0)
    print(result.tail_summary(start=40.0))

The benchmark apps (traffic, WordCount, windowed join) are rows of
:data:`repro.apps.APPS`; :mod:`repro.api` is the stable import surface.
"""

from .config import CheckpointConfig, ClusterConfig, CostModel
from .core import (
    MitigationPlan,
    SilkPolicy,
    RandomizedL0Trigger,
    estimate_drain_time,
    recommend_compaction_threads,
    recommend_flush_threads,
)
from .errors import ReproError
from .lsm import LSMOptions, LSMStore
from .sim import Simulator
from .storage import HDD, NVME_SSD, TMPFS, StorageProfile
from .stream import ConstantSource, StageSpec, StreamJob, StreamJobResult

__version__ = "5.0.0"

__all__ = [
    "CheckpointConfig",
    "ClusterConfig",
    "CostModel",
    "MitigationPlan",
    "SilkPolicy",
    "RandomizedL0Trigger",
    "estimate_drain_time",
    "recommend_compaction_threads",
    "recommend_flush_threads",
    "ReproError",
    "LSMOptions",
    "LSMStore",
    "Simulator",
    "HDD",
    "NVME_SSD",
    "TMPFS",
    "StorageProfile",
    "ConstantSource",
    "StageSpec",
    "StreamJob",
    "StreamJobResult",
    "__version__",
]

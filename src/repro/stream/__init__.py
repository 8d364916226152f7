"""The Flink-like stream engine: stages, workers, checkpoints, Kafka."""

from .checkpoint import CheckpointCoordinator, CheckpointRecord
from .engine import StreamJob, StreamJobResult, Subsystem
from .kafka import KafkaBroker, Partition, Topic
from .messages import Record, RecordBatch
from .sources import ClosedLoopSource, ConstantSource, DiurnalSource, PiecewiseSource
from .stage import Stage, StageInstance, StageSpec
from .state_backend import LSMStateBackend
from .worker import WorkerNode

__all__ = [
    "CheckpointCoordinator",
    "CheckpointRecord",
    "StreamJob",
    "StreamJobResult",
    "Subsystem",
    "KafkaBroker",
    "Partition",
    "Topic",
    "Record",
    "RecordBatch",
    "ConstantSource",
    "PiecewiseSource",
    "Stage",
    "StageInstance",
    "StageSpec",
    "LSMStateBackend",
    "WorkerNode",
]

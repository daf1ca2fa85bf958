"""Real shared-memory (multiprocessing) backend of the paper's strategies."""

from .guard import WorkerCrashed
from .pool import AlignmentWorkerPool, PoolJobError
from .shm import (
    ArenaHandle,
    SequenceArena,
    SharedArray,
    attach_shared_array,
    create_shared_array,
)

__all__ = [
    "AlignmentWorkerPool",
    "ArenaHandle",
    "PoolJobError",
    "SequenceArena",
    "SharedArray",
    "WorkerCrashed",
    "attach_shared_array",
    "create_shared_array",
]

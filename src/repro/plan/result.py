"""Result types shared by every executor backend.

:class:`StrategyResult` is what the simulated backend produces (virtual
cluster seconds, DSM statistics, found alignments); it lives here so the
executors can build results without importing the strategy layer.

:class:`ExecutionResult` is the real-execution counterpart: what the inline
and pool executors return for any plan kind.  It deliberately duck-types the
fields the pipeline runner and CLI read from a phase result (``name``,
``n_procs``, ``alignments``, ``extras``, ``total_time``) so the inline
executor and the pool slot into ``run_pipeline`` where the simulator runs
by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.alignment import LocalAlignment
from ..sim.stats import ClusterStats, PhaseTimes


@dataclass
class StrategyResult:
    """What one simulated run produces: times, breakdowns, and alignments."""

    name: str
    n_procs: int
    nominal_size: tuple[int, int]
    total_time: float
    phases: PhaseTimes
    stats: ClusterStats
    alignments: list[LocalAlignment] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def core_time(self) -> float:
        return self.phases.core

    def speedup_against(self, serial: "StrategyResult | float") -> float:
        """Absolute speed-up "calculated considering the total execution
        times and thus include time for initialization and collecting
        results" (Section 4.2.1)."""
        serial_time = serial if isinstance(serial, (int, float)) else serial.total_time
        if self.total_time <= 0:
            raise ValueError("non-positive total time")
        return serial_time / self.total_time


@dataclass
class ExecutionResult:
    """What one real (inline or pool) plan execution produces.

    ``wall_seconds`` is host wall-clock time -- never virtual cluster
    seconds.  ``alignments`` is filled for region-finding kinds
    (wavefront/blocked) and for phase 2 (the queue in slot order),
    ``hits`` for search (the ``(score, index)`` ranking), ``extras`` for
    kind-specific artifacts such as the pre_process result matrix or the
    phase-2 records.
    """

    kind: str
    n_procs: int
    backend: str = ""
    alignments: list[LocalAlignment] = field(default_factory=list)
    hits: list[tuple[int, int]] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    n_tiles: int = 0
    total_cells: int = 0

    @property
    def name(self) -> str:
        return self.kind

    @property
    def total_time(self) -> float:
        """Duck-types the phase-1 result interface; wall seconds here."""
        return self.wall_seconds

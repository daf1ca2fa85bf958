"""Strategy 2 (Section 4.3): wave-front with blocking factors.

The similarity matrix is tiled into *bands* (row groups) x *blocks* (column
groups); band b belongs to processor b mod P, and the bottom row of every
block is sent to the next processor in one communication ("it is worth
investigating whether the communication time can be reduced by grouping
many values from the border column into one single communication").

Unlike strategy 1 there is no read-acknowledge handshake: the passage
structure buffers a whole band boundary, so a producer can run ahead of its
consumer and the per-block costs overlap with computation.  What limits
speed-up instead is pipeline fill/drain -- with a 1x1 blocking multiplier
each block is n/P columns wide and n/P rows tall, and processors idle for
most of the run (Table 3's 732 s vs 363 s at 5x5).

:func:`blocked_plan` builds the band x block task graph;
:func:`run_blocked` executes it on the simulated cluster.  The tile kernel
itself (``compute_tile``) lives in :mod:`repro.core.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..plan import SimExecutor, TaskGraph, Tiling, blocked_spec, cached_plan
from ..plan.partition import explicit_tiling, tiling_from_multiplier
from ..plan.result import StrategyResult
from ..sim.costmodel import DEFAULT_COST_MODEL, CostModel
from .base import RegionSettings, ScaledWorkload

__all__ = [
    "BlockedConfig",
    "blocked_plan",
    "run_blocked",
    "serial_blocked_time",
]


@dataclass(frozen=True)
class BlockedConfig:
    """Run parameters of the blocked strategy."""

    n_procs: int = 8
    multiplier: tuple[int, int] = (5, 5)
    n_bands: int | None = None  # explicit override (Table 4's 40 x 25)
    n_blocks: int | None = None
    regions: RegionSettings = RegionSettings()

    def __post_init__(self) -> None:
        if self.n_procs <= 0:
            raise ValueError("n_procs must be positive")
        if (self.n_bands is None) != (self.n_blocks is None):
            raise ValueError("set both n_bands and n_blocks, or neither")

    def tiling(self, rows: int, cols: int) -> Tiling:
        if self.n_bands is not None:
            return explicit_tiling(rows, cols, self.n_bands, self.n_blocks)
        return tiling_from_multiplier(rows, cols, self.n_procs, self.multiplier)


def blocked_plan(workload: ScaledWorkload, config: BlockedConfig) -> TaskGraph:
    """The Section 4.3 task graph for this workload and config (memoised by
    :func:`repro.plan.cached_plan`, as the pool memoises its own)."""
    tiling = config.tiling(workload.rows, workload.cols)
    regions = config.regions
    spec = blocked_spec(
        n_procs=config.n_procs,
        n_bands=tiling.n_bands,
        n_blocks=tiling.n_blocks,
        threshold=regions.threshold,
        col_tolerance=regions.col_tolerance,
        row_tolerance=regions.row_tolerance,
        min_score=regions.min_score,
        overlap_slack=regions.overlap_slack,
    )
    return cached_plan(spec, workload.rows, workload.cols)


def run_blocked(
    workload: ScaledWorkload,
    config: BlockedConfig | None = None,
    cost: CostModel = DEFAULT_COST_MODEL,
    timeline=None,
) -> StrategyResult:
    """Simulate one blocked run; returns timings and found alignments."""
    config = config or BlockedConfig()
    graph = blocked_plan(workload, config)
    return SimExecutor(cost, timeline).run(
        graph, workload.s, workload.t, workload.scoring, scale=workload.scale
    )


def serial_blocked_time(workload: ScaledWorkload, cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Virtual time of the sequential blocked-kernel run (Table 4 'Serial')."""
    return (
        cost.node_startup_time
        + workload.nominal_cells * cost.blocked_cell_time
        + cost.node_teardown_time
    )

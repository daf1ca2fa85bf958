"""Strategy 1 (Section 4.2): wave-front without blocking factors.

Work is assigned on a column basis -- every processor owns N/P columns of
the similarity matrix and keeps only two rows of it (writing and reading
row) in JIAJIA shared memory.  "Each value of the border column is passed
individually between processors Pi and Pi+1.  Thus, no blocking factors are
used to group any values": every row triggers, per edge, a lock-protected
border write, a jia_setcv to the right neighbour, and a read-acknowledge
jia_setcv back (the paper's "processor 0 waits on a condition variable in
order to guarantee that the preceding value has already been read").

This module is now a thin strategy front-end: :func:`wavefront_plan` turns a
config into a :class:`repro.plan.TaskGraph` (rows aggregated into groups of
G for event-count economy) and :func:`run_wavefront` executes that graph on
the simulated cluster via :class:`repro.plan.SimExecutor`, which charges all
protocol costs once per *nominal* row through the DSM layer's ``repeat``
arguments.  The same graph runs unchanged on the inline and pool backends.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..plan import SimExecutor, TaskGraph, cached_plan, wavefront_spec
from ..plan.result import StrategyResult
from ..sim.costmodel import DEFAULT_COST_MODEL, CostModel
from .base import RegionSettings, ScaledWorkload


@dataclass(frozen=True)
class WavefrontConfig:
    """Run parameters of the non-blocked strategy."""

    n_procs: int = 8
    target_groups: int = 1200  # row-aggregation granularity (DES events)
    regions: RegionSettings = RegionSettings()
    #: Enable JIAJIA's optional home-migration feature (jia_config).  The
    #: two shared DP rows are written by the same node forever, so their
    #: pages migrate to their writers and the per-row diff traffic -- the
    #: chunk-proportional overhead term -- disappears after a few rows.
    home_migration: bool = False

    def __post_init__(self) -> None:
        if self.n_procs <= 0:
            raise ValueError("n_procs must be positive")
        if self.target_groups <= 0:
            raise ValueError("target_groups must be positive")


def wavefront_plan(workload: ScaledWorkload, config: WavefrontConfig) -> TaskGraph:
    """The Section 4.2 task graph for this workload and config (memoised by
    :func:`repro.plan.cached_plan`, as the pool memoises its own)."""
    regions = config.regions
    spec = wavefront_spec(
        n_procs=config.n_procs,
        group_rows=max(1, workload.rows // config.target_groups),
        threshold=regions.threshold,
        col_tolerance=regions.col_tolerance,
        row_tolerance=regions.row_tolerance,
        min_score=regions.min_score,
        overlap_slack=regions.overlap_slack,
        home_migration=config.home_migration,
    )
    return cached_plan(spec, workload.rows, workload.cols)


def run_wavefront(
    workload: ScaledWorkload,
    config: WavefrontConfig | None = None,
    cost: CostModel = DEFAULT_COST_MODEL,
    timeline=None,
) -> StrategyResult:
    """Simulate one non-blocked run; returns timings and found alignments."""
    config = config or WavefrontConfig()
    graph = wavefront_plan(workload, config)
    return SimExecutor(cost, timeline).run(
        graph, workload.s, workload.t, workload.scoring, scale=workload.scale
    )


def serial_wavefront_time(workload: ScaledWorkload, cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Virtual time of the sequential heuristic run (Table 1's 'Serial').

    The sequential program pays no DSM costs: just the kernel over every
    cell plus process start/teardown.
    """
    return (
        cost.node_startup_time
        + workload.nominal_cells * cost.heuristic_cell_time
        + cost.node_teardown_time
    )

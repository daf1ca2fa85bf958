"""Strategy 3 (Section 5): exact computation with a result-matrix scoreboard.

No candidate-alignment tracking: the score matrix is computed in column
chunks inside row bands, every cell is compared against a threshold, and
only (a) the per-column-group *hit counts* (the result matrix) and (b) a
save-interleave subset of columns written to disk survive.  "Notice that in
this way we will provide exact but also approximate answers.  A final
selection should be done in order to select the optimal alignments."

Modelled parameters (Section 5's list):

* height of the band in rows, via the *fixed / equal / balanced* schemes;
* chunk size and growth method (fixed / arithmetic / geometric);
* save interleave ``ip`` -- column ``i`` is saved iff ``i % ip == 0``;
* result-matrix interleave -- columns summarised per cell;
* I/O mode -- ``none`` / ``immediate`` / ``deferred``.

The *equal* scheme's sequential cache penalty ("with 40 or 80 kBP sequences
this has a negative impact on the memory locality within the CPU cache",
Fig. 19) is modelled as a cell-time multiplier once a band's column arrays
outgrow the L1/L2 budget; the ablation benchmark regenerates Fig. 19 from
exactly this term.

:func:`preprocess_plan` converts the config's *nominal* sizes to actual
rows/columns and builds the band x chunk task graph; :func:`run_preprocess`
executes it on the simulated cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..plan import SimExecutor, TaskGraph, cached_plan, preprocess_spec
from ..plan.partition import band_heights
from ..plan.result import StrategyResult
from ..sim.costmodel import DEFAULT_COST_MODEL, CostModel
from .base import ScaledWorkload

IO_MODES = ("none", "immediate", "deferred")
BAND_SCHEMES = ("fixed", "equal", "balanced")


@dataclass(frozen=True)
class PreprocessConfig:
    """Run parameters of the pre_process strategy (nominal units)."""

    n_procs: int = 8
    band_size: int = 1000  # nominal rows per band (fixed/balanced schemes)
    band_scheme: str = "fixed"
    chunk_size: int = 1000  # nominal columns per chunk
    chunk_growth: str = "fixed"
    save_interleave: int = 1000  # column i saved iff i % ip == 0
    result_interleave: int = 1000  # columns summarised per result cell
    io_mode: str = "none"
    threshold: int = 20

    # Cache-locality penalty of oversized bands (see module docstring).
    # Column-wise processing keeps ~2 column arrays of band_height cells
    # resident; above ~32k rows (2 x 32k x 4 B = 256 KB) they outgrow the
    # Pentium II's 512 KB L2 and every cell pays a memory stall -- the ~20%
    # sequential degradation of Fig. 19's "equal" bars at 40/80 kBP.
    cache_friendly_rows: int = 32_000
    cache_penalty: float = 0.20

    def __post_init__(self) -> None:
        if self.n_procs <= 0:
            raise ValueError("n_procs must be positive")
        if self.io_mode not in IO_MODES:
            raise ValueError(f"io_mode must be one of {IO_MODES}")
        if self.band_scheme not in BAND_SCHEMES:
            raise ValueError(f"band_scheme must be one of {BAND_SCHEMES}")
        if min(self.band_size, self.chunk_size, self.save_interleave, self.result_interleave) <= 0:
            raise ValueError("sizes and interleaves must be positive")

    def cell_time(self, band_rows_nominal: int, cost: CostModel) -> float:
        """Per-cell time including the band-height cache penalty."""
        base = cost.preprocess_cell_time
        if band_rows_nominal > self.cache_friendly_rows:
            return base * (1.0 + self.cache_penalty)
        return base


def preprocess_plan(workload: ScaledWorkload, config: PreprocessConfig) -> TaskGraph:
    """The Section 5 task graph for this workload and config.

    Config sizes are nominal; the graph is built in actual units, while the
    cache knobs stay nominal (the sim charges per nominal band height).  The
    graph is memoised by :func:`repro.plan.cached_plan`.
    """
    scale = workload.scale

    def to_actual(nominal: int) -> int:
        return max(1, nominal // scale)

    spec = preprocess_spec(
        n_procs=config.n_procs,
        band_size=to_actual(config.band_size),
        chunk_size=to_actual(config.chunk_size),
        band_scheme=config.band_scheme,
        chunk_growth=config.chunk_growth,
        threshold=config.threshold,
        result_interleave=to_actual(config.result_interleave),
        save_interleave=to_actual(config.save_interleave),
        io_mode=config.io_mode,
        cache_friendly_rows=config.cache_friendly_rows,
        cache_penalty=config.cache_penalty,
    )
    return cached_plan(spec, workload.rows, workload.cols)


def run_preprocess(
    workload: ScaledWorkload,
    config: PreprocessConfig | None = None,
    cost: CostModel = DEFAULT_COST_MODEL,
    timeline=None,
) -> StrategyResult:
    """Simulate one pre_process run.

    ``extras`` carries the result matrix (actual-scale hit counts per band x
    column bucket), the band heights used, and disk statistics.
    """
    config = config or PreprocessConfig()
    graph = preprocess_plan(workload, config)
    return SimExecutor(cost, timeline).run(
        graph, workload.s, workload.t, workload.scoring, scale=workload.scale
    )


def serial_preprocess_time(
    workload: ScaledWorkload,
    config: PreprocessConfig | None = None,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """Sequential pre_process core time under the same band scheme.

    Fig. 19's one-processor bars differ across blocking options purely via
    the cache-locality of the chosen band height; this helper reproduces
    that by applying the same cell-time rule with ``n_procs = 1``.
    """
    config = config or PreprocessConfig()
    heights = band_heights(
        config.band_scheme,
        workload.rows,
        max(1, config.band_size // workload.scale),
        1,
    )
    total = 0.0
    for h in heights:
        cell_time = config.cell_time(h * workload.scale, cost)
        total += h * workload.scale * workload.nominal_cols * cell_time
    return cost.node_startup_time + total + cost.node_teardown_time

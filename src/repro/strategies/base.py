"""Shared infrastructure of the three parallel strategies.

Workload scaling
----------------
The paper's largest experiment fills a 400k x 400k similarity matrix --
1.6*10^11 cells, days of compute even for vectorized kernels.  The simulated
strategies therefore accept a :class:`ScaledWorkload`: the kernels run on
*actual* sequences of ``n`` bases while the virtual clock is charged as if
each actual row were ``scale`` nominal rows (and each cell ``scale**2``
nominal cells).  ``scale=1`` (tests, examples) is exact simulation; the
benchmarks use the scale factors recorded per experiment in EXPERIMENTS.md.
The aggregation is faithful for pipeline timing because steady-state
throughput depends only on per-stage totals, and fill/drain distortion is
O(scale * P / n_nominal) (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.alignment import LocalAlignment
from ..core.regions import RegionConfig
from ..core.scoring import DEFAULT_SCORING, Scoring
from ..seq.alphabet import encode

__all__ = ["RegionSettings", "ScaledWorkload", "encode_pair"]


def encode_pair(s, t) -> tuple[np.ndarray, np.ndarray]:
    """Encode the two sequences of a comparison; both must be non-empty.

    The one entry check of every pipeline, simulated or on the pool, and
    the only shape rule: any non-empty pair runs on every strategy and
    processor count.  A ``t`` narrower than the processor count leaves the
    wave-front's last processors an empty column slice, which only passes
    its left border on, as the blocked plans leave a processor without a
    band.
    """
    s, t = encode(s), encode(t)
    if len(s) == 0 or len(t) == 0:
        raise ValueError("sequences must be non-empty")
    return s, t


@dataclass
class ScaledWorkload:
    """A sequence pair plus the nominal-size scaling factor."""

    s: np.ndarray
    t: np.ndarray
    scale: int = 1
    scoring: Scoring = DEFAULT_SCORING

    def __post_init__(self) -> None:
        self.s, self.t = encode_pair(self.s, self.t)
        if self.scale < 1:
            raise ValueError("scale must be >= 1")

    @property
    def rows(self) -> int:
        return len(self.s)

    @property
    def cols(self) -> int:
        return len(self.t)

    @property
    def nominal_rows(self) -> int:
        return self.rows * self.scale

    @property
    def nominal_cols(self) -> int:
        return self.cols * self.scale

    @property
    def nominal_cells(self) -> int:
        return self.nominal_rows * self.nominal_cols

    def scale_alignment(self, alignment: LocalAlignment) -> LocalAlignment:
        """Project an actual-coordinate alignment into nominal coordinates."""
        if self.scale == 1:
            return alignment
        return LocalAlignment(
            score=alignment.score,
            s_start=alignment.s_start * self.scale,
            s_end=alignment.s_end * self.scale,
            t_start=alignment.t_start * self.scale,
            t_end=alignment.t_end * self.scale,
        )


@dataclass(frozen=True)
class RegionSettings:
    """How phase 1 turns DP rows into queue entries at cluster scale."""

    threshold: int = 35
    col_tolerance: int = 16
    row_tolerance: int = 16
    min_score: int | None = None  # queue admission; defaults to threshold
    overlap_slack: int = 8

    def region_config(self) -> RegionConfig:
        return RegionConfig(
            threshold=self.threshold,
            col_tolerance=self.col_tolerance,
            row_tolerance=self.row_tolerance,
        )

    @property
    def admission_score(self) -> int:
        return self.threshold if self.min_score is None else self.min_score

"""Retrieving actual alignments from the pre_process scoreboard.

Section 5: "Although little information is contained in the result matrix,
it indicates interesting regions in the score matrix. ... having the total
number of hits will hint whether investigating further in that block of
data. ... Knowing interesting areas of the matrix and having the boundary
columns and rows allow one to reprocess these limited areas so as to
retrieve the local alignments."

This module is that final selection step: pick the hot cells of the result
matrix, expand each into a (rows x columns) window of the score matrix,
re-run full Smith-Waterman over the window only, and return the recovered
alignments in global coordinates.  It turns the exact-but-approximate
pre_process output into the same alignment queue the heuristic strategies
produce -- completing strategy 3's pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.alignment import AlignmentQueue, LocalAlignment
from ..core.matrix import local_alignments_above
from ..core.scoring import DEFAULT_SCORING, Scoring
from ..plan.result import StrategyResult


@dataclass(frozen=True)
class InterestingRegion:
    """One hot cell of the result matrix, expanded to matrix coordinates."""

    band: int
    bucket: int
    hits: int
    row_start: int
    row_end: int
    col_start: int
    col_end: int

    @property
    def area(self) -> int:
        return (self.row_end - self.row_start) * (self.col_end - self.col_start)

    @property
    def hit_density(self) -> float:
        return self.hits / self.area if self.area else 0.0


def interesting_regions(
    result_matrix: np.ndarray,
    band_heights: list[int],
    result_interleave: int,
    n_cols: int,
    min_hits: int = 1,
    max_regions: int = 64,
) -> list[InterestingRegion]:
    """Hot cells of the result matrix, hottest first.

    ``min_hits`` is the investigation threshold ("values at this level
    indicate that 30% of the cells were above the threshold, so that region
    is very likely to contain good alignments"); density-based thresholds
    can be applied by the caller via :attr:`InterestingRegion.hit_density`.
    """
    if result_matrix.ndim != 2:
        raise ValueError("result matrix must be 2-D")
    if len(band_heights) != result_matrix.shape[0]:
        raise ValueError("band_heights must match the result matrix rows")
    row_starts = np.concatenate([[0], np.cumsum(band_heights)])
    out: list[InterestingRegion] = []
    for band in range(result_matrix.shape[0]):
        for bucket in range(result_matrix.shape[1]):
            hits = int(result_matrix[band, bucket])
            if hits < min_hits:
                continue
            out.append(
                InterestingRegion(
                    band=band,
                    bucket=bucket,
                    hits=hits,
                    row_start=int(row_starts[band]),
                    row_end=int(row_starts[band + 1]),
                    col_start=bucket * result_interleave,
                    col_end=min(n_cols, (bucket + 1) * result_interleave),
                )
            )
    out.sort(key=lambda r: (-r.hits, r.band, r.bucket))
    return out[:max_regions]


def _merge_windows(
    regions: list[InterestingRegion], pad: int, n_rows: int, n_cols: int
) -> list[tuple[int, int, int, int]]:
    """Expand hot cells by ``pad`` and merge overlapping windows.

    An alignment's hits may span several result-matrix cells; merging keeps
    each alignment inside a single reprocessed window.
    """
    windows = [
        (
            max(0, r.row_start - pad),
            min(n_rows, r.row_end + pad),
            max(0, r.col_start - pad),
            min(n_cols, r.col_end + pad),
        )
        for r in regions
    ]
    merged: list[tuple[int, int, int, int]] = []
    for win in sorted(windows):
        for i, kept in enumerate(merged):
            if (
                win[0] < kept[1]
                and kept[0] < win[1]
                and win[2] < kept[3]
                and kept[2] < win[3]
            ):
                merged[i] = (
                    min(kept[0], win[0]),
                    max(kept[1], win[1]),
                    min(kept[2], win[2]),
                    max(kept[3], win[3]),
                )
                break
        else:
            merged.append(win)
    return merged


def retrieve_alignments(
    s: np.ndarray,
    t: np.ndarray,
    result: StrategyResult,
    min_score: int,
    min_hits: int = 1,
    pad: int = 64,
    max_regions: int = 64,
    scoring: Scoring = DEFAULT_SCORING,
) -> list[LocalAlignment]:
    """Section 5's final selection: reprocess the interesting areas.

    ``result`` must come from :func:`repro.strategies.run_preprocess` with
    ``scale == 1`` (the windows are re-aligned on the actual data).  Returns
    the finalized queue of recovered alignments in global coordinates.
    """
    if result.name != "pre_process":
        raise ValueError("retrieve_alignments expects a pre_process result")
    if "result_matrix" not in result.extras:
        raise ValueError("result has no result matrix")
    if result.nominal_size != (len(s), len(t)):
        raise ValueError(
            "retrieval needs the actual sequences the scoreboard was built "
            "from (run pre_process with scale=1)"
        )
    matrix = result.extras["result_matrix"]
    heights = result.extras["band_heights"]
    interleave = -(-len(t) // matrix.shape[1])
    hot = interesting_regions(
        matrix, heights, interleave, len(t), min_hits=min_hits, max_regions=max_regions
    )
    queue = AlignmentQueue()
    for r0, r1, c0, c1 in _merge_windows(hot, pad, len(s), len(t)):
        for traced in local_alignments_above(
            s[r0:r1], t[c0:c1], min_score=min_score, scoring=scoring
        ):
            queue.push(traced.as_local().shifted(r0, c0))
    return queue.finalize(min_score=min_score, overlap_slack=8, merge=True)

"""Vectorized dynamic-programming row kernels.

The Smith-Waterman / Needleman-Wunsch recurrence has three dependencies per
cell; two of them (diagonal and vertical) only touch the *previous* row and
vectorize trivially, but the horizontal one chains along the current row:

    H[i, j] = max(C[j], H[i, j-1] + gap)            with
    C[j]    = max(diag, up[, 0])

For a *linear* gap penalty ``gap = -g`` this chain has the closed form

    H[i, j] = max_{k <= j} (C[k] - g * (j - k))
            = (running max of C[k] + g*k) - g*j

so one ``np.maximum.accumulate`` resolves the whole row exactly.  This is the
same algebra behind the "striped" SIMD Smith-Waterman kernels; here it is the
difference between ~10^5 and ~10^8 cells/second in Python, which is what makes
the paper's 50 kBP-400 kBP workloads reachable (see DESIGN.md).  A deliberately
naive per-cell kernel is kept for differential testing and the ablation bench.

The row machinery itself lives in :class:`repro.core.engine.KernelWorkspace`,
which additionally precomputes the query profile and reuses all scratch
buffers across rows; callers hold one per query sequence.  This module keeps
the per-cell references :func:`sw_row_naive` / :func:`nw_row_naive` and the
small row helpers.
"""

from __future__ import annotations

import numpy as np

from .scoring import DEFAULT_SCORING, SCORE_DTYPE, Scoring

__all__ = [
    "SCORE_DTYPE",
    "count_hits",
    "initial_row",
    "nw_row_naive",
    "row_maximum",
    "sw_row_naive",
]


def sw_row_naive(
    prev: np.ndarray,
    s_char: int,
    t_codes: np.ndarray,
    scoring: Scoring = DEFAULT_SCORING,
) -> np.ndarray:
    """Per-cell reference of :meth:`KernelWorkspace.sw_rows` (tests/ablation)."""
    row = np.zeros_like(prev)
    for j in range(1, prev.size):
        sub = scoring.pair_score(int(s_char), int(t_codes[j - 1]))
        row[j] = max(
            0,
            int(prev[j - 1]) + sub,
            int(prev[j]) + scoring.gap,
            int(row[j - 1]) + scoring.gap,
        )
    return row


def nw_row_naive(
    prev: np.ndarray,
    s_char: int,
    t_codes: np.ndarray,
    boundary: int,
    scoring: Scoring = DEFAULT_SCORING,
) -> np.ndarray:
    """Per-cell reference of :meth:`KernelWorkspace.nw_rows`."""
    row = np.zeros_like(prev)
    row[0] = boundary
    for j in range(1, prev.size):
        sub = scoring.pair_score(int(s_char), int(t_codes[j - 1]))
        row[j] = max(
            int(prev[j - 1]) + sub,
            int(prev[j]) + scoring.gap,
            int(row[j - 1]) + scoring.gap,
        )
    return row


def initial_row(n_cols: int, local: bool, scoring: Scoring = DEFAULT_SCORING) -> np.ndarray:
    """Row 0 of the DP array: zeros for local, gap multiples for global."""
    if local:
        return np.zeros(n_cols + 1, dtype=SCORE_DTYPE)
    return np.arange(n_cols + 1, dtype=SCORE_DTYPE) * SCORE_DTYPE(scoring.gap)


def count_hits(row: np.ndarray, threshold: int) -> int:
    """Number of cells in a row at or above ``threshold``.

    This is the scoreboard primitive of the *pre_process* strategy (Section
    5): "when a new cell score is calculated, the score value is compared to
    a threshold; if it is found to be greater than the threshold, a hit
    counter is incremented".  The boundary column is excluded.
    """
    return int(np.count_nonzero(row[1:] >= threshold))


def row_maximum(row: np.ndarray) -> tuple[int, int]:
    """``(score, column)`` of the row maximum, excluding the boundary column.

    Ties resolve to the leftmost column, matching a left-to-right scan.
    """
    if row.size <= 1:
        raise ValueError("row has no data columns")
    j = int(np.argmax(row[1:])) + 1
    return int(row[j]), j

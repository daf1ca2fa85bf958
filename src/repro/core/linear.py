"""Linear-space (two-row) Smith-Waterman score pass.

Section 4.1 of the paper: "it is possible to simulate the filling of the
original bi-dimensional array using only two rows of memory because in order
to compute entry A[i,j], we require only the values of A[i-1,j], A[i-1,j-1]
and A[i,j-1]".  This module provides that scan for score-only questions: best
score and endpoint (the input to the Section 6 reverse-rebuild), per-row hit
counts (the input to the pre_process result matrix), and the last row of a
global alignment (the primitive Hirschberg's divide-and-conquer needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..seq.alphabet import encode
from .engine import KernelWorkspace
from .kernels import initial_row
from .scoring import DEFAULT_SCORING, SCORE_DTYPE, Scoring

#: Rows one batch call advances.  Every scan here holds one block of this
#: many rows (plus the carried previous row), so memory stays linear in the
#: target length while the per-call overhead is paid once per block.
BLOCK_ROWS = 256
#: Cell cap of that block (16 MiB of scores): targets wider than 16K
#: columns get fewer rows per call, down to one, instead of a block that
#: grows 256 times their width.
BLOCK_CELLS = 1 << 22


@dataclass(frozen=True)
class ScoreEndpoint:
    """Best local score and the matrix cell (1-based DP coords) where it ends."""

    score: int
    i: int
    j: int


def _block_rows(width: int) -> int:
    """Rows per batch call over a ``width``-column target."""
    return max(1, min(BLOCK_ROWS, BLOCK_CELLS // (width + 1)))


def sw_blocks(
    ws: KernelWorkspace, s: np.ndarray, finder=None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(i0, rows)``: SW rows ``i0 .. i0 + len(rows) - 1`` of ``s`` x ``ws.t``.

    ``rows`` is a view into one block reused by every iteration; it is valid
    until the generator resumes.  The first row scanned is the local
    boundary row of zeros.  With a ``finder``
    (:class:`~repro.core.regions.StreamingRegionFinder`) every block's
    above-threshold segments are cut while its rows are computed
    (:meth:`KernelWorkspace.sw_rows_cut`) and fed to it before the block
    is yielded.
    """
    m = len(s)
    step = _block_rows(ws.width)
    prev = np.zeros(ws.width + 1, dtype=SCORE_DTYPE)
    block = np.empty((min(m, step), ws.width + 1), dtype=SCORE_DTYPE)
    for i0 in range(0, m, step):
        codes = s[i0 : i0 + step]
        rows = block[: len(codes)]
        if finder is None:
            ws.sw_rows(prev, codes, out=rows)
        else:
            cfg = finder.config
            cut = ws.sw_rows_cut(prev, codes, None, cfg.threshold, cfg.col_tolerance, out=rows)
            finder.feed_segments(i0 + 1, len(codes), cut)
        yield i0 + 1, rows
        prev[:] = rows[-1]


def iter_sw_rows(
    s: np.ndarray | str,
    t: np.ndarray | str,
    scoring: Scoring = DEFAULT_SCORING,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(i, row_i)`` for i = 1..m in linear space.

    Rows are computed up to :data:`BLOCK_ROWS` at a time; each yielded array is a
    view into that reused block, valid until the iterator resumes.  Callers
    that need to keep a row must copy it.
    """
    ws = KernelWorkspace(encode(t), scoring)
    for i0, rows in sw_blocks(ws, encode(s)):
        for r, row in enumerate(rows):
            yield i0 + r, row


def sw_best_endpoint(
    s: np.ndarray | str,
    t: np.ndarray | str,
    scoring: Scoring = DEFAULT_SCORING,
) -> ScoreEndpoint:
    """Best local-alignment score and endpoint in O(min-row) memory.

    Ties resolve to the smallest ``i`` then smallest ``j`` (first cell found
    in a row-major scan), matching :func:`repro.core.matrix.best_cell`.
    """
    best = ScoreEndpoint(0, 0, 0)
    ws = KernelWorkspace(encode(t), scoring)
    for i0, rows in sw_blocks(ws, encode(s)):
        r = int(np.argmax(rows.max(axis=1)))
        j = int(np.argmax(rows[r]))
        score = int(rows[r, j])
        if score > best.score:
            best = ScoreEndpoint(score, i0 + r, j)
    return best


def sw_endpoints_above(
    s: np.ndarray | str,
    t: np.ndarray | str,
    min_score: int,
    scoring: Scoring = DEFAULT_SCORING,
) -> list[ScoreEndpoint]:
    """Endpoints of all distinct above-threshold alignments (linear space).

    A cell qualifies when it scores at least ``min_score`` and is a *summit*:
    no neighbouring continuation of the same alignment scores higher.  We
    detect summits streamingly by clustering above-threshold cells with
    :class:`repro.core.regions.StreamingRegionFinder` and reporting each
    cluster's peak, which is exactly the "detected alignment of desired score
    k at positions i, j" input of the paper's Algorithm 1.
    """
    from .regions import RegionConfig, find_regions

    if min_score <= 0:
        raise ValueError("min_score must be positive")
    return [
        ScoreEndpoint(r.score, r.peak_i, r.peak_j)
        for r in find_regions(s, t, RegionConfig(threshold=min_score), scoring)
        if r.score >= min_score
    ]


def sw_row_hits(
    s: np.ndarray | str,
    t: np.ndarray | str,
    threshold: int,
    scoring: Scoring = DEFAULT_SCORING,
) -> np.ndarray:
    """Per-row counts of cells scoring at or above ``threshold``.

    Sequential reference of the pre_process strategy's scoreboard
    (Section 5); the parallel version distributes exactly this computation.
    The boundary column is excluded, as in :func:`repro.core.count_hits`.
    """
    s_arr = encode(s)
    hits = np.zeros(len(s_arr), dtype=np.int64)
    ws = KernelWorkspace(encode(t), scoring)
    for i0, rows in sw_blocks(ws, s_arr):
        hits[i0 - 1 : i0 - 1 + len(rows)] = np.count_nonzero(
            rows[:, 1:] >= threshold, axis=1
        )
    return hits


def nw_last_row(
    s: np.ndarray | str,
    t: np.ndarray | str,
    scoring: Scoring = DEFAULT_SCORING,
) -> np.ndarray:
    """Last row of the global (NW) similarity matrix in linear space.

    ``result[j] == sim_global(s, t[:j])``; this is the score vector
    Hirschberg's algorithm combines from both directions.
    """
    s = encode(s)
    t = encode(t)
    ws = KernelWorkspace(t, scoring)
    row = initial_row(len(t), local=False, scoring=scoring)
    step = _block_rows(len(t))
    block = np.empty((min(len(s), step), len(t) + 1), dtype=SCORE_DTYPE)
    for i0 in range(0, len(s), step):
        codes = s[i0 : i0 + step]
        k = len(codes)
        boundaries = scoring.gap * np.arange(i0 + 1, i0 + k + 1, dtype=np.int64)
        ws.nw_rows(row, codes, boundaries, out=block[:k])
        row[:] = block[k - 1]
    return row

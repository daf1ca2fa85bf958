"""Section 6: exact local alignment in O(min(n, m) + n'^2) space.

The paper's third theoretical contribution (Algorithm 1 plus Observation 6.1
and Theorem 6.2): run the linear-space SW scan once to find the *endpoints*
of the desired alignments, then, for each endpoint (i, j), run the dynamic
programming over the **reversed prefixes** ``s[..i]^rev`` and ``t[..j]^rev``
until the same score k reappears -- the cell where it does is the alignment's
*start* (Observation 6.1: an alignment of score k finishing at (i, j) becomes
an alignment of score k starting at the mirrored positions of the reverses).
Only the small n' x n' corner around the alignment is ever materialised.

Theorem 6.2 prunes the reverse pass further: because an alignment of minimal
length must start at the very first characters of the reversed prefixes,
every cell that cannot be reached from the border with a positive score is
unnecessary.  With match score ``ma`` and gap penalty ``g``, a cell (i, j)
with i > j needs at least ``i - j`` gaps against at most ``j`` matches, so it
is useful only while ``j*ma - (i-j)*g > 0``; for the paper's +1/-2 scheme the
border of the useful area in column k sits at row ``k + ceil(k/2)`` and the
total unnecessary area approaches ``2/3 n'^2 - n'`` (Eqs. 2-3), i.e. only
~30% of the naive n'^2 corner is computed in the worst case.  This module
implements the banded reverse scan and exposes the cell accounting so the
benchmark can verify the 30% claim empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..seq.alphabet import encode
from .engine import KernelWorkspace
from .kernels import initial_row
from .linear import ScoreEndpoint, sw_best_endpoint, sw_endpoints_above
from .matrix import TracebackResult, smith_waterman
from .scoring import DEFAULT_SCORING, Scoring


def band_limit(k: int, scoring: Scoring = DEFAULT_SCORING) -> int:
    """Row index of the useful-area border in column ``k`` (Section 6).

    A path from the border to row ``i`` of column ``k`` with ``i > k`` pays
    at least ``i - k`` gaps and earns at most ``k`` matches, so usefulness
    requires ``k*match - (i-k)*|gap| > 0``.  For the paper's scheme this is
    the ``k + ceil(k/2)`` bound quoted in Section 6.
    """
    if k == 0:
        return 0
    ratio = scoring.match / (-scoring.gap)
    return k + math.ceil(k * ratio)


def predicted_unnecessary_cells(n: int, scoring: Scoring = DEFAULT_SCORING) -> int:
    """Exact count of prunable cells in an n x n reverse corner (Eq. 2).

    Sums ``n - border(k)`` over the columns whose border falls inside the
    matrix, doubled for the symmetric row-wise pruning.
    """
    total = 0
    for k in range(1, n + 1):
        b = band_limit(k, scoring)
        if b < n:
            total += n - b
    return 2 * total


def predicted_necessary_fraction(n: int, scoring: Scoring = DEFAULT_SCORING) -> float:
    """Fraction of the n x n corner that must be computed (~30% for +1/-2)."""
    if n == 0:
        return 1.0
    return 1.0 - predicted_unnecessary_cells(n, scoring) / (n * n)


@dataclass(frozen=True)
class ReverseScanResult:
    """Outcome of the banded reverse scan from one endpoint."""

    found: bool
    rev_i: int  # 1-based row (in the reversed prefix) where score k appeared
    rev_j: int
    score: int
    cells_computed: int
    cells_full: int  # the naive rev_i x rev_j rectangle, for the 30% claim

    @property
    def computed_fraction(self) -> float:
        return self.cells_computed / self.cells_full if self.cells_full else 1.0


def reverse_scan(
    s_prefix: np.ndarray,
    t_prefix: np.ndarray,
    target_score: int,
    scoring: Scoring = DEFAULT_SCORING,
) -> ReverseScanResult:
    """Scan the reversed prefixes until an alignment of ``target_score`` appears.

    Rows are processed with the two-row kernel, but each row is restricted to
    the Theorem 6.2 band: cells outside it are forced to zero (they cannot
    carry a useful positive score).  The next row depends on that zeroing,
    so the scan advances one-row batches in place.  It stops at the first row
    containing the target score; the minimal-length start position is the
    leftmost such cell, matching the paper's "alignment of minimal length".
    """
    s_rev = np.ascontiguousarray(s_prefix[::-1])
    t_rev = t_prefix[::-1]
    n_cols = len(t_rev)
    ws = KernelWorkspace(t_rev, scoring)
    row = initial_row(n_cols, local=True, scoring=scoring)
    cells = 0
    for i in range(1, len(s_rev) + 1):
        ws.sw_rows(row, s_rev[i - 1 : i], out=row[None, :])
        # Band: columns j with i <= border(j) and j <= border(i).
        hi = min(n_cols, band_limit(i, scoring))
        ratio = scoring.match / (-scoring.gap)
        lo = max(1, int(i / (1.0 + ratio)) - 2)
        while band_limit(lo, scoring) < i:
            lo += 1
        if lo > 1:
            row[1:lo] = 0
        if hi < n_cols:
            row[hi + 1 :] = 0
        cells += max(0, hi - lo + 1)
        in_row = np.nonzero(row[lo : hi + 1] >= target_score)[0]
        if in_row.size:
            j = int(in_row[0]) + lo
            return ReverseScanResult(
                found=True,
                rev_i=i,
                rev_j=j,
                score=int(row[j]),
                cells_computed=cells,
                cells_full=i * j,
            )
    return ReverseScanResult(False, 0, 0, 0, cells, len(s_rev) * n_cols)


@dataclass(frozen=True)
class ExactAlignment:
    """A fully rebuilt alignment plus the space-accounting evidence."""

    result: TracebackResult
    endpoint: ScoreEndpoint
    scan: ReverseScanResult


def rebuild_alignment(
    s: np.ndarray | str,
    t: np.ndarray | str,
    endpoint: ScoreEndpoint,
    scoring: Scoring = DEFAULT_SCORING,
) -> ExactAlignment:
    """Algorithm 1, steps 2-4, for one detected endpoint.

    Runs the banded reverse scan over the prefixes ending at the endpoint,
    converts the discovered start back to original coordinates, and rebuilds
    the actual alignment with a full-matrix SW over the (small) n' x n'
    rectangle only.
    """
    s = encode(s)
    t = encode(t)
    if not (0 < endpoint.i <= len(s) and 0 < endpoint.j <= len(t)):
        raise ValueError("endpoint outside the DP matrix")
    scan = reverse_scan(s[: endpoint.i], t[: endpoint.j], endpoint.score, scoring)
    if not scan.found:
        raise ValueError(
            f"no alignment of score {endpoint.score} ends at "
            f"({endpoint.i}, {endpoint.j}); was the endpoint produced by the "
            "forward scan with the same scoring?"
        )
    s_start = endpoint.i - scan.rev_i
    t_start = endpoint.j - scan.rev_j
    traced = smith_waterman(s[s_start : endpoint.i], t[t_start : endpoint.j], scoring)
    shifted = TracebackResult(
        alignment=traced.alignment,
        s_start=traced.s_start + s_start,
        t_start=traced.t_start + t_start,
        s_end=traced.s_end + s_start,
        t_end=traced.t_end + t_start,
    )
    return ExactAlignment(shifted, endpoint, scan)


def exact_best_alignment(
    s: np.ndarray | str,
    t: np.ndarray | str,
    scoring: Scoring = DEFAULT_SCORING,
) -> ExactAlignment:
    """Best local alignment using O(min(n,m) + n'^2) space end to end."""
    s = encode(s)
    t = encode(t)
    endpoint = sw_best_endpoint(s, t, scoring)
    if endpoint.score == 0:
        raise ValueError("sequences share no positive-scoring local alignment")
    return rebuild_alignment(s, t, endpoint, scoring)


def exact_alignments_above(
    s: np.ndarray | str,
    t: np.ndarray | str,
    min_score: int,
    scoring: Scoring = DEFAULT_SCORING,
) -> list[ExactAlignment]:
    """All distinct alignments of score >= ``min_score`` (Algorithm 1 loop).

    A high-scoring region's DP values decay only slowly through the random
    background that follows it (the +1/-1/-2 scheme sits near its critical
    drift), so the forward scan can report secondary summits inside the decay
    tail of a real alignment.  Rebuilding resolves the ambiguity: a tail
    summit's alignment *starts* inside the true region, so after the reverse
    rebuild duplicates overlap and are dropped, keeping the best-scoring
    alignment per region -- exactly the paper's "final selection ... to
    select the optimal alignments".
    """
    s = encode(s)
    t = encode(t)
    rebuilt = [
        rebuild_alignment(s, t, endpoint, scoring)
        for endpoint in sw_endpoints_above(s, t, min_score, scoring)
    ]
    rebuilt.sort(key=lambda r: -r.result.alignment.score)
    kept: list[ExactAlignment] = []
    for cand in rebuilt:
        if any(cand.result.as_local().overlaps(k.result.as_local()) for k in kept):
            continue
        kept.append(cand)
    return kept

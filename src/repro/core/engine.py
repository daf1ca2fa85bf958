"""Zero-copy kernel workspace: query profiles, scratch reuse, batched rows.

:class:`KernelWorkspace` is the one pairwise DP row path of the repository.
Every caller -- the plan runtimes' tiles, the linear-space scans of
:mod:`repro.core.linear`, the Section 6 reverse scan, the protein scan and
the phase-2 global rows -- advances rows through the batch API
(``sw_rows``/``nw_rows``/``sw_rows_slice``), which hands the whole batch to
the compiled tile loop of :mod:`repro.core.ckernel`;
``sw_rows_cut`` also cuts the batch's above-threshold row segments inside
that loop (phase-1 detection), with :func:`cut_segments` as its numpy cut.

The numpy rows behind that loop borrow two standard tricks from the SIMD
Smith-Waterman literature (Rucci et al.'s KNL kernels, Farrar's striped
layout -- see PAPERS.md):

* **Query profile**: the substitution vector depends only on (scoring, target,
  query character), so the workspace computes it once per character code and
  reuses it for every row that character appears in.  For DNA that is four
  vectors for the whole alignment instead of one ``np.where`` per row.
* **Scratch reuse**: the candidate row, the int64 accumulate buffer and the
  ``gap * arange`` ramp used to resolve the horizontal-gap chain are allocated
  once and reused, so a row advance performs zero heap allocations.

They run when the compiled loop cannot (no compiler, or a layout the C side
does not take) and always in :class:`NumpyWorkspace`, the C-free reference.
The one-row methods (``_sw_row``, ``_nw_row``, ``_sw_row_slice``) are
private to that fallback.  A batch's ``out`` may alias ``prev`` when it
holds one row (``out=row[None, :]``): both paths read the whole of ``prev``
that a row needs before they overwrite it.

A workspace is bound to one ``(scoring, target)`` pair -- exactly the shape of
every loop in this repository: the target (or target slice) is fixed while the
query characters stream past.  The per-cell references the workspace is
tested against are :func:`repro.core.kernels.sw_row_naive` and
:func:`repro.core.kernels.nw_row_naive`.
"""

from __future__ import annotations

import numpy as np

from ..obs import count_cells
from . import ckernel
from .scoring import DEFAULT_SCORING, SCORE_DTYPE, Scoring


class KernelWorkspace:
    """Reusable state for advancing DP rows against one fixed target.

    ``t_codes`` is the encoded target (or target slice) every row is computed
    against.  ``eager_codes`` lists the query codes whose profile rows are
    precomputed up front (default: the DNA alphabet); any other code is
    profiled lazily on first use, so protein workspaces work unchanged.
    """

    __slots__ = (
        "t",
        "scoring",
        "width",
        "_gap",
        "_ramp",
        "_cand",
        "_tmp",
        "_acc",
        "_wide",
        "_zero",
        "_profile",
        "_table",
    )

    #: Whether the batched row APIs may run the compiled tile loop
    #: (:mod:`repro.core.ckernel`).  :class:`NumpyWorkspace` switches it off
    #: so its batches always run the numpy rows.
    COMPILED_ROWS = True

    def __init__(
        self,
        t_codes: np.ndarray,
        scoring: Scoring = DEFAULT_SCORING,
        eager_codes=range(4),
    ) -> None:
        self.t = np.ascontiguousarray(t_codes)
        self.scoring = scoring
        n = int(self.t.size)
        self.width = n
        self._gap = int(scoring.gap)
        # Horizontal resolution ramp g*j (g = |gap|).  Candidate scores are
        # bounded by match*n above, so cand + g*j stays within int32 unless
        # (match + g) * (n + 1) approaches 2^31; only then is the int64
        # widening path needed.  The narrow path runs the whole resolution
        # in-place in the int32 output row: three passes, zero copies.
        self._wide = (int(scoring.match) - self._gap) * (n + 1) >= 2**30
        ramp_dtype = np.int64 if self._wide else SCORE_DTYPE
        self._ramp = (-self._gap) * np.arange(n + 1, dtype=ramp_dtype)
        self._cand = np.empty(n + 1, dtype=SCORE_DTYPE)
        self._tmp = np.empty(n, dtype=SCORE_DTYPE)
        self._acc = np.empty(n + 1, dtype=np.int64) if self._wide else None
        # Zero-clamp operand: a scalar 0 falls off numpy's vectorized inner
        # loop for integer maximum (~20x slower per row), an array does not.
        self._zero = np.zeros(n + 1, dtype=SCORE_DTYPE)
        self._profile: dict[int, np.ndarray] = {}
        self._table: np.ndarray | None = None  # (n_codes, n) for the C rows
        for code in eager_codes:
            self.profile_row(int(code))

    # -- profile ----------------------------------------------------------

    def profile_row(self, s_char: int) -> np.ndarray:
        """Substitution scores of ``s_char`` against the whole target."""
        row = self._profile.get(s_char)
        if row is None:
            row = np.ascontiguousarray(
                self.scoring.substitution_row(s_char, self.t), dtype=SCORE_DTYPE
            )
            self._profile[s_char] = row
        return row

    # -- numpy rows (the batch fallback) ----------------------------------

    def _candidates(self, prev: np.ndarray, s_char: int) -> np.ndarray:
        """Best score per cell over the diagonal and vertical moves."""
        if prev.size != self.width + 1:
            raise ValueError(
                f"prev row has {prev.size} cells; workspace target needs "
                f"{self.width + 1}"
            )
        cand = self._cand
        np.add(prev[:-1], self.profile_row(s_char), out=cand[1:])
        np.add(prev[1:], SCORE_DTYPE(self._gap), out=self._tmp)
        np.maximum(cand[1:], self._tmp, out=cand[1:])
        return cand

    def _resolve(self, out: np.ndarray) -> np.ndarray:
        """Apply the horizontal-gap closed form to ``_cand`` and emit the row."""
        if self._wide:
            acc = self._acc
            np.add(self._cand, self._ramp, out=acc)
            np.maximum.accumulate(acc, out=acc)
            np.subtract(acc, self._ramp, out=acc)
            out[:] = acc  # exact downcast: true row values fit SCORE_DTYPE
        else:
            np.add(self._cand, self._ramp, out=out)
            np.maximum.accumulate(out, out=out)
            np.subtract(out, self._ramp, out=out)
        return out

    def _sw_row(self, prev: np.ndarray, s_char: int, out: np.ndarray) -> np.ndarray:
        """One Smith-Waterman row; ``out`` may alias ``prev`` (in-place scan)."""
        cand = self._candidates(prev, int(s_char))
        cand[0] = 0
        np.maximum(cand, self._zero, out=cand)
        return self._resolve(out)

    def _nw_row(
        self,
        prev: np.ndarray,
        s_char: int,
        boundary: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """One Needleman-Wunsch row with ``boundary`` as the first column."""
        cand = self._candidates(prev, int(s_char))
        cand[0] = boundary
        return self._resolve(out)

    def _sw_row_slice(
        self,
        prev: np.ndarray,
        s_char: int,
        left_current: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """One SW row over a column slice given the left neighbour's border.

        Processor ``p`` owns columns ``[c0, c1)``; ``prev`` has length
        ``c1 - c0 + 1`` with ``prev[0] = H[i-1, c0-1]`` (the neighbour's
        border on the previous row) and ``prev[k] = H[i-1, c0+k-1]``;
        ``left_current = H[i, c0-1]`` is the neighbour's border on the
        current row.  Returns the same layout for row ``i``; stitching
        slices computed this way reproduces the full-matrix row exactly.
        The workspace must have been built over the *slice* of the target.
        """
        cand = self._candidates(prev, int(s_char))
        cand[0] = left_current
        np.maximum(cand[1:], self._zero[1:], out=cand[1:])
        return self._resolve(out)

    # -- batched kernels ---------------------------------------------------

    def _profile_table(self, top: int) -> np.ndarray:
        """The profile rows of codes ``0..top`` as one ``(top + 1, n)`` block."""
        table = self._table
        if table is None or table.shape[0] <= top:
            table = np.empty((top + 1, self.width), dtype=SCORE_DTYPE)
            for code in range(top + 1):
                table[code] = self.profile_row(code)
            self._table = table
        return table

    def _compiled_rows(self, prev, s_codes, lefts, clamp: bool, out, cut=None):
        """Advance a batch through the compiled tile loop.

        Returns None, having written nothing, when the loop does not apply
        (no compiled module, :class:`NumpyWorkspace`, or a layout
        or dtype the C side does not take); the caller then runs the numpy
        rows, which also raise any shape error.  Otherwise returns the
        batch's segments when ``cut`` is given (see :func:`ckernel.rows`),
        else ``out``.
        """
        k = len(s_codes)
        if (
            not self.COMPILED_ROWS
            or k == 0
            or prev.dtype != SCORE_DTYPE
            or prev.shape != (self.width + 1,)
            or out.dtype != SCORE_DTYPE
            or out.shape != (k, self.width + 1)
            or out.strides[1] != out.itemsize
            or (lefts is not None and len(lefts) < k)
            or ckernel.load() is None
        ):
            return None
        codes = np.asarray(s_codes)
        if codes.dtype != np.uint8:
            if codes.dtype.kind not in "iu" or codes.min() < 0 or codes.max() > 255:
                return None
            codes = codes.astype(np.uint8)
        codes = np.ascontiguousarray(codes)
        if lefts is not None:
            lefts = np.ascontiguousarray(lefts[:k], dtype=SCORE_DTYPE)
        segments = ckernel.rows(
            self._profile_table(int(codes.max())),
            np.ascontiguousarray(prev),
            lefts,
            codes,
            self._gap,
            clamp,
            out,
            cut,
        )
        return out if cut is None else segments

    def sw_rows(
        self, prev: np.ndarray, s_codes, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Advance ``len(s_codes)`` SW rows; returns the ``(k, n+1)`` block."""
        k = len(s_codes)
        if out is None:
            out = np.empty((k, prev.size), dtype=SCORE_DTYPE)
        if self._compiled_rows(prev, s_codes, None, True, out) is None:
            row = prev
            for r in range(k):
                row = self._sw_row(row, int(s_codes[r]), out=out[r])
        count_cells(k * self.width)  # one guarded hook per batch, never per row
        return out

    def nw_rows(
        self,
        prev: np.ndarray,
        s_codes,
        boundaries,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Advance ``len(s_codes)`` NW rows; ``boundaries[r]`` seeds column 0."""
        k = len(s_codes)
        if out is None:
            out = np.empty((k, prev.size), dtype=SCORE_DTYPE)
        if self._compiled_rows(prev, s_codes, boundaries, False, out) is None:
            row = prev
            for r in range(k):
                row = self._nw_row(row, int(s_codes[r]), int(boundaries[r]), out=out[r])
        count_cells(k * self.width)
        return out

    def sw_rows_slice(
        self,
        prev: np.ndarray,
        s_codes,
        lefts,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Advance a batch of slice rows; ``lefts[r]`` is the left border of row r.

        ``out`` may be a view into a wider buffer (its rows strided, its
        columns contiguous), so a blocked band fills in place; ``lefts`` may
        alias ``out[:, 0]``.
        """
        k = len(s_codes)
        if out is None:
            out = np.empty((k, prev.size), dtype=SCORE_DTYPE)
        if self._compiled_rows(prev, s_codes, lefts, True, out) is None:
            row = prev
            for r in range(k):
                row = self._sw_row_slice(row, int(s_codes[r]), int(lefts[r]), out=out[r])
        count_cells(k * self.width)
        return out

    def sw_rows_cut(
        self,
        prev: np.ndarray,
        s_codes,
        lefts,
        threshold: int,
        col_tolerance: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`sw_rows_slice` (``lefts`` None: zeros, as :meth:`sw_rows`)
        that also cuts the batch's above-threshold row segments.

        Returns them as an ``(n, 6)`` int64 array of ``(row, j_lo, j_hi,
        peak_j, score, hits)``, row-major, ``row`` counted from the batch's
        first row and columns from ``out``'s column 0 (which is never
        cut): the compiled loop cuts them while it computes the cells, the
        numpy rows leave it to :func:`cut_segments`.
        """
        k = len(s_codes)
        if out is None:
            out = np.empty((k, prev.size), dtype=SCORE_DTYPE)
        segments = self._compiled_rows(prev, s_codes, lefts, True, out, (threshold, col_tolerance))
        if segments is None:
            row = prev
            for r in range(k):
                left = 0 if lefts is None else int(lefts[r])
                row = self._sw_row_slice(row, int(s_codes[r]), left, out=out[r])
            segments = cut_segments(out, threshold, col_tolerance)
        count_cells(k * self.width)
        return segments


class NumpyWorkspace(KernelWorkspace):
    """:class:`KernelWorkspace` with the compiled rows switched off.

    The C-free reference: the compiled tile loop is fuzzed against it
    (``tests/core/test_ckernel.py``), ``bench kernels`` times its rows, and
    :func:`repro.strategies.search.sequential_best_score` scans with it.
    """

    __slots__ = ()
    COMPILED_ROWS = False


def cut_segments(rows: np.ndarray, threshold: int, col_tolerance: int) -> np.ndarray:
    """The above-threshold segments of each of ``rows`` (``(h, w + 1)``,
    boundary column first), cut in numpy: what the compiled loop of
    :meth:`KernelWorkspace.sw_rows_cut` cuts while it computes the cells.

    A segment is a run of columns ``1..w`` scoring at least ``threshold``
    whose consecutive hits are at most ``col_tolerance`` apart; returns
    ``(row, j_lo, j_hi, peak_j, score, hits)`` per segment, row-major, as
    an ``(n, 6)`` int64 array.  ``peak_j`` is the first maximum, as
    ``np.argmax`` picks it in :meth:`StreamingRegionFinder.feed`.
    """
    r, j = np.nonzero(rows[:, 1:] >= threshold)
    if r.size == 0:
        return np.empty((0, 6), dtype=np.int64)
    j += 1
    score = rows[r, j].astype(np.int64)
    opens = np.ones(r.size, dtype=bool)
    opens[1:] = (r[1:] != r[:-1]) | (j[1:] - j[:-1] > col_tolerance)
    first = np.flatnonzero(opens)
    last = np.append(first[1:], r.size) - 1
    group = np.cumsum(opens) - 1
    top = np.maximum.reduceat(score, first)
    at_top = np.flatnonzero(score == top[group])
    peak = at_top[np.unique(group[at_top], return_index=True)[1]]
    return np.column_stack((r[first], j[first], j[last], j[peak], top, last - first + 1)).astype(
        np.int64
    )


def compute_tile(
    top: np.ndarray,
    left_col: np.ndarray,
    s_band: np.ndarray,
    t_block: np.ndarray,
    scoring: Scoring = DEFAULT_SCORING,
    workspace: KernelWorkspace | None = None,
) -> np.ndarray:
    """DP over one (band x block) tile given its top row and left column.

    ``top`` has length ``w + 1``: ``top[0]`` is the diagonal corner
    ``H[r0-1, c0-1]`` and ``top[1:]`` the previous band's bottom row over
    this block's columns.  ``left_col[r] = H[r0+r, c0-1]`` comes from the
    block to the left (zeros at the matrix edge).  Returns the full tile
    including the left border column (shape ``h x (w+1)``).

    ``workspace`` (built over ``t_block``) lets callers that revisit the same
    column block -- every band of a blocked run -- amortize the query profile
    and scratch buffers across tiles.
    """
    h, w = len(s_band), len(t_block)
    ws = workspace if workspace is not None else KernelWorkspace(t_block, scoring)
    tile = np.empty((h, w + 1), dtype=SCORE_DTYPE)
    ws.sw_rows_slice(top, s_band, left_col, out=tile)
    return tile

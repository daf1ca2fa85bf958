"""Multi-sequence DP workspace: one query row advanced across many targets.

:class:`repro.core.engine.KernelWorkspace` removes the per-row allocation
overhead of a single pairwise scan, but a *database search* (one query
against thousands of short targets) is still dominated by per-sequence
Python/numpy dispatch: a 500 bp target means every vector op touches only a
few hundred elements, so the interpreter -- not the ALU -- sets the pace.

:class:`MultiSequenceWorkspace` applies the inter-task parallelisation of
SWAPHI's Xeon Phi kernels (see PAPERS.md): pack ``k`` length-bucketed
targets into one padded code matrix and advance *all k* DP rows per numpy
call, so the batch axis plays the role of the SIMD lane axis.  Three layout
decisions carry the throughput:

* **Lanes are the contiguous axis.**  The DP state is ``(n + 1, k)`` --
  target position outer, lane inner -- so every vector op streams over
  contiguous same-position lanes.  Crucially, the horizontal-gap chain
  (``H[j] = max(C[j], H[j-1] + gap)``) runs as one vectorized ``maximum``
  per *column* over all ``k`` lanes, instead of ``numpy``'s
  ``maximum.accumulate`` whose inner loop is serial per element in either
  layout.  For narrow batches the accumulate is cheaper, so the workspace
  picks per batch (:data:`CHAIN_LOOP_MIN_LANES`).
* **Narrow lanes when scores provably fit.**  With short targets the paper's
  unit scores are bounded far below ``2**15``, so the whole row state drops
  to int16 -- double the SIMD width and half the memory traffic of
  :data:`SCORE_DTYPE` -- whenever ``match * n`` and every intermediate
  (candidate + ramp, chain minimum) fit with margin; otherwise int32 (and
  the usual int64 widening for enormous widths).  Returned scores are
  always :data:`SCORE_DTYPE`.
* **Padding mask.**  Lanes shorter than the bucket width are padded with
  :data:`PAD_CODE`; the query profile maps padded positions to a score
  dominating any real score, so a diagonal move can never enter padding
  competitively.  Gap moves *can* flow rightwards into the padding, but
  every such path starts from a valid cell and only accumulates strictly
  negative penalties, so padded cells are strictly dominated by a valid
  cell already counted -- per-lane running maxima are exact with no
  per-lane slicing.

The Smith-Waterman zero-clamp is applied *after* the chain rather than
before it: with ``g = -gap > 0``,
``max_{i<=j}(max(C[i], 0) + g*i) = max(max_{i<=j}(C[i] + g*i), g*j)``
because ``g*i`` is increasing, so clamping the resolved row at 0 yields the
same values as clamping the candidates first -- one fewer full pass.

Valid-column values are bitwise identical to a per-sequence
:class:`KernelWorkspace` scan: column ``j``'s recurrence only reads columns
``<= j`` of the current row and ``j-1, j`` of the previous one, all valid
when ``j`` is.

:meth:`MultiSequenceWorkspace.sw_best_scores` hands the whole query to the
compiled ``lanes`` loop of :mod:`repro.core.ckernel` in the int16 and int32
regimes, with the plain recurrence
``max(diag + profile, up + gap, left + gap, 0)`` per cell and no chain.
Its layout cuts the lanes into chunks of
:data:`repro.core.ckernel.LANE_CHUNK_BYTES` (16 int16 or 8 int32 lanes),
each chunk's cells contiguous: the profile table is
``(n_codes, chunks, n, w)`` and the row block ``(chunks, n + 1, w)``.  Each
chunk runs the whole query down the whole target with its diagonal, left
cell and running best held in registers, so only the row cell and the
profile go through memory, both from one chunk-sized block.  The lane
count is rounded up to whole chunks; the extra lanes are :data:`PAD_CODE`
with length 0, score 0, and are sliced off before anything is returned or
counted.  The int64 ``_wide`` regime and :class:`NumpyMultiWorkspace` (the
reference the C is fuzzed and benchmarked against) keep one chunk of all
``k`` lanes, ``(1, n, k)`` -- the lanes-contiguous layout above -- and run
the numpy rows.
"""

from __future__ import annotations

import numpy as np

from ..obs import count_cells
from . import ckernel
from .scoring import DEFAULT_SCORING, SCORE_DTYPE, Scoring

#: Code used for padded positions of the packed target matrix.  Outside every
#: real alphabet (DNA is 0..3, proteins 0..24), so profiles can mask on it.
PAD_CODE = np.uint8(255)

#: Substitution score of a query character against a padded position in the
#: int32 lane mode.  Large enough (in magnitude) to dominate any score
#: reachable in the narrow int32 regime, small enough that ``prev + PAD``
#: cannot wrap.
PAD_SCORE = SCORE_DTYPE(-(2**30))

#: The int16 counterpart.  Scores are bounded by ``match * n <= 2**13`` when
#: this mode is selected, so ``-(2**13)`` dominates and every intermediate
#: (down to ``PAD_SCORE_16 - g*(n+1) > -2**15``) stays in range.
PAD_SCORE_16 = np.int16(-(2**13))

#: Batch width at which the per-column vectorized chain loop overtakes
#: ``np.maximum.accumulate`` (whose inner loop is serial per element).
CHAIN_LOOP_MIN_LANES = 128

def pack_codes(targets, width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pack encoded target sequences into a padded ``(k, width)`` matrix.

    Returns ``(codes, lengths)`` where padded positions hold
    :data:`PAD_CODE`.  ``width`` defaults to the longest target.
    """
    lengths = np.array([int(len(t)) for t in targets], dtype=np.int64)
    if width is None:
        width = int(lengths.max()) if lengths.size else 0
    if lengths.size and int(lengths.max()) > width:
        raise ValueError(f"target longer than pack width {width}")
    codes = np.full((len(lengths), width), PAD_CODE, dtype=np.uint8)
    for lane, t in enumerate(targets):
        codes[lane, : lengths[lane]] = t
    return codes, lengths


class MultiSequenceWorkspace:
    """Reusable state for advancing ``k`` DP rows, one per packed target.

    ``codes`` is a ``(k, n)`` uint8 matrix of encoded targets padded with
    :data:`PAD_CODE` (as produced by :func:`pack_codes`); ``lengths`` gives
    each lane's real length.  Row blocks have shape ``(n + 1, k)`` -- the
    usual leading boundary column, lanes contiguous.  ``eager_codes`` lists
    the query codes profiled up front (default: the DNA alphabet); other
    codes are profiled lazily, so protein batches work unchanged.
    """

    __slots__ = (
        "scoring",
        "lengths",
        "lanes",
        "width",
        "_padded",
        "dtype",
        "_codes_t",
        "_present",
        "_gap",
        "_pad_score",
        "_wide",
        "_ramp",
        "_cand",
        "_tmp",
        "_acc",
        "_zero",
        "_row",
        "_row_views",
        "_rowmax",
        "_profile",
        "_table",
    )

    #: Whether :meth:`sw_best_scores` may run the compiled lane loop
    #: (:mod:`repro.core.ckernel`); :class:`NumpyMultiWorkspace` switches it
    #: off.  The int64 ``_wide`` regime always runs the numpy rows.
    COMPILED_LANES = True

    def __init__(
        self,
        codes: np.ndarray,
        lengths,
        scoring: Scoring = DEFAULT_SCORING,
        eager_codes=range(4),
    ) -> None:
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim != 2:
            raise ValueError("codes must be a (k, n) matrix")
        k, n = codes.shape
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.lengths.shape != (k,):
            raise ValueError("lengths must have one entry per lane")
        if self.lengths.size and int(self.lengths.max()) > n:
            raise ValueError("lane length exceeds the packed width")
        self.scoring = scoring
        self.lanes = k
        self.width = n
        self._gap = int(scoring.gap)
        # The residue codes the targets use: a profile block is gathered
        # from a 256-entry table scored over these codes alone (scorings may
        # index 4x4 matrices with them, so PAD_CODE is never scored).
        counts = np.bincount(codes.ravel(), minlength=256)[:PAD_CODE]
        self._present = np.flatnonzero(counts).astype(np.uint8)
        match, mismatch = int(scoring.match), int(scoring.mismatch)
        # Lane dtype: int16 when the score bound match*n and every
        # intermediate fit with margin (see module docstring), else the same
        # int32/int64 regime switch as KernelWorkspace.
        if (
            match * n <= 2**13
            and (match - self._gap) * (n + 2) <= 2**14
            and mismatch >= -(2**13)
        ):
            self.dtype = np.int16
            self._pad_score = PAD_SCORE_16
            self._wide = False
        else:
            self.dtype = SCORE_DTYPE
            self._pad_score = PAD_SCORE
            self._wide = (match - self._gap) * (n + 1) >= 2**30
        # The profile's lane layout is (chunks, n, w), each chunk's cells
        # contiguous.  The compiled lanes walk w = 32 bytes of lanes at a
        # time, so k is rounded up to whole chunks with PAD_CODE lanes
        # (length 0, so they score 0); the numpy rows keep one chunk of all
        # k lanes, (1, n, k), lanes contiguous.
        if self.COMPILED_LANES and not self._wide:
            w = ckernel.LANE_CHUNK_BYTES // np.dtype(self.dtype).itemsize
            chunks = -(-k // w)
        else:
            w, chunks = k, 1
        self._padded = chunks * w
        if self._padded != k:
            codes = np.concatenate(
                [codes, np.full((self._padded - k, n), PAD_CODE, dtype=np.uint8)]
            )
        self._codes_t = np.ascontiguousarray(codes.reshape(chunks, w, n).transpose(0, 2, 1))
        # The numpy rows' scratch (_row, _rowmax, _ramp, _cand, _tmp, _acc,
        # _zero, _row_views) is built on their first use: the compiled lanes
        # need none of it.
        self._cand = None
        # Profile blocks live in one (n_codes, chunks, n, w) table, the
        # layout the compiled lanes index by query code; _profile maps
        # code -> block.
        eager = [int(code) for code in eager_codes]
        self._table = np.empty(
            (max(eager, default=-1) + 1, *self._codes_t.shape), dtype=self.dtype
        )
        self._profile: dict[int, np.ndarray] = {}
        for code in eager:
            self._chunk_block(code)

    # -- profile -----------------------------------------------------------

    def profile_block(self, s_char: int) -> np.ndarray:
        """The ``(n, k)`` substitution block of ``s_char`` vs every lane.

        A view in the numpy rows' one-chunk layout; a lane-contiguous copy
        of the compiled lanes' chunks otherwise (the numpy rows then run
        only as the fallback for a missing compiler).
        """
        block = self._chunk_block(s_char)
        chunks, n, w = block.shape
        return block.transpose(1, 0, 2).reshape(n, chunks * w)[:, : self.lanes]

    def _chunk_block(self, s_char: int) -> np.ndarray:
        """The ``(chunks, n, w)`` profile block of ``s_char``, built once."""
        block = self._profile.get(s_char)
        if block is None:
            self._reserve(s_char + 1)
            block = self._table[s_char]
            lookup = np.zeros(256, dtype=self.dtype)
            lookup[self._present] = self.scoring.substitution_row(s_char, self._present)
            lookup[PAD_CODE] = self._pad_score
            np.take(lookup, self._codes_t, out=block)
            self._profile[s_char] = block
        return block

    def _reserve(self, n_codes: int) -> None:
        """Grow the profile table to cover codes ``0..n_codes-1``."""
        table = self._table
        if table.shape[0] >= n_codes:
            return
        grown = np.empty((n_codes, *table.shape[1:]), dtype=self.dtype)
        for code in self._profile:
            grown[code] = table[code]
        self._table = grown
        self._profile = {code: grown[code] for code in self._profile}

    def _query_table(self, codes: np.ndarray) -> np.ndarray:
        """The profile table with every code of ``codes`` profiled."""
        present = np.flatnonzero(np.bincount(codes))
        self._reserve(int(present[-1]) + 1)
        for code in present.tolist():
            self._chunk_block(code)
        return self._table

    # -- row kernel --------------------------------------------------------

    def initial_rows(self) -> np.ndarray:
        """A fresh all-zero ``(n+1, k)`` row block (local row 0)."""
        return np.zeros((self.width + 1, self.lanes), dtype=self.dtype)

    def _numpy_scratch(self) -> None:
        """Allocate the numpy rows' scratch buffers (once, on first use)."""
        n, k = self.width, self.lanes
        self._row = np.zeros((n + 1, k), dtype=self.dtype)
        self._rowmax = np.empty(k, dtype=self.dtype)
        ramp_dtype = np.int64 if self._wide else self.dtype
        self._ramp = ((-self._gap) * np.arange(n + 1, dtype=ramp_dtype))[:, None]
        self._cand = np.empty((n + 1, k), dtype=self.dtype)
        self._tmp = np.empty((n, k), dtype=self.dtype)
        self._acc = np.empty((n + 1, k), dtype=np.int64) if self._wide else None
        # Zero-clamp operand: a scalar 0 falls off numpy's vectorized inner
        # loop for integer maximum, an array operand does not.
        self._zero = np.zeros((n + 1, k), dtype=np.int64 if self._wide else self.dtype)
        # Pre-sliced per-column views of the owned row buffer: the chain loop
        # costs one vectorized maximum per column, no per-iteration slicing.
        self._row_views = (
            [self._row[j] for j in range(n + 1)] if k >= CHAIN_LOOP_MIN_LANES else None
        )

    def _chain(self, x: np.ndarray) -> None:
        """In-place prefix maximum along axis 0 (the ramped gap chain)."""
        if x is self._row and self._row_views is not None:
            rows = self._row_views
            prev = rows[0]
            for cur in rows[1:]:
                np.maximum(cur, prev, out=cur)
                prev = cur
        elif x.shape[1] >= CHAIN_LOOP_MIN_LANES:
            prev = x[0]
            for j in range(1, x.shape[0]):
                cur = x[j]
                np.maximum(cur, prev, out=cur)
                prev = cur
        else:
            np.maximum.accumulate(x, axis=0, out=x)

    def sw_row(
        self, prev: np.ndarray, s_char: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Advance every lane by one Smith-Waterman row.

        ``prev`` is the ``(n+1, k)`` previous row block; ``out`` may alias
        ``prev`` for an in-place two-row scan.
        """
        if prev.shape != (self.width + 1, self.lanes):
            raise ValueError(
                f"prev block is {prev.shape}; workspace needs "
                f"{(self.width + 1, self.lanes)}"
            )
        if self._cand is None:
            self._numpy_scratch()
        cand = self._cand
        np.add(prev[:-1], self.profile_block(int(s_char)), out=cand[1:])
        np.add(prev[1:], self.dtype(self._gap), out=self._tmp)
        np.maximum(cand[1:], self._tmp, out=cand[1:])
        cand[0] = 0
        if out is None:
            out = np.empty((self.width + 1, self.lanes), dtype=self.dtype)
        if self._wide:
            acc = self._acc
            np.add(cand, self._ramp, out=acc)
            self._chain(acc)
            np.subtract(acc, self._ramp, out=acc)
            np.maximum(acc, self._zero, out=acc)
            out[:] = acc  # exact downcast: true row values fit the lane dtype
        else:
            np.add(cand, self._ramp, out=out)
            self._chain(out)
            np.subtract(out, self._ramp, out=out)
            np.maximum(out, self._zero, out=out)
        return out

    # -- whole-query scans -------------------------------------------------

    @property
    def compiled(self) -> bool:
        """True when :meth:`sw_best_scores` runs the compiled lane loop."""
        return self.COMPILED_LANES and not self._wide and ckernel.load() is not None

    def _compiled_scan(self, s_codes, best: np.ndarray) -> bool:
        """Run the whole query through the compiled lane loop into ``best``.

        ``best`` holds one maximum per lane of the padded compiled layout.
        Returns False, having written nothing, when the loop does not apply
        (see :attr:`compiled`, or codes that are not bytes); the caller then
        runs the numpy rows.
        """
        if not self.compiled:
            return False
        codes = np.asarray(s_codes)
        if codes.dtype != np.uint8:
            if codes.size and (
                codes.dtype.kind not in "iu" or codes.min() < 0 or codes.max() > 255
            ):
                return False
            codes = codes.astype(np.uint8)
        if codes.size and self.lanes and self.width:
            codes = np.ascontiguousarray(codes)
            table = self._query_table(codes)
            _, chunks, n, w = table.shape
            row = np.zeros((chunks, n + 1, w), dtype=self.dtype)
            ckernel.lanes(table, codes, self._gap, row, best)
        return True

    def sw_best_scores(self, s_codes) -> np.ndarray:
        """Best local alignment score of the query against every lane.

        Streams the query once down the whole batch, keeping a per-lane
        running maximum; returns a ``(k,)`` :data:`SCORE_DTYPE` vector
        bitwise equal to ``k`` independent :class:`KernelWorkspace` scans.
        """
        padded_best = np.zeros(self._padded, dtype=self.dtype)
        best = padded_best[: self.lanes]  # the pad lanes are never returned
        if not self._compiled_scan(s_codes, padded_best):
            if self._cand is None:
                self._numpy_scratch()
            row = self._row
            row[:] = 0
            rowmax = self._rowmax
            for ch in s_codes:
                row = self.sw_row(row, int(ch), out=row)
                np.max(row, axis=0, out=rowmax)
                np.maximum(best, rowmax, out=best)
        # Only real cells count: padded slots do no useful work.
        count_cells(int(len(s_codes)) * int(self.lengths.sum()))
        return best.astype(SCORE_DTYPE)


class NumpyMultiWorkspace(MultiSequenceWorkspace):
    """:class:`MultiSequenceWorkspace` with the compiled lanes switched off.

    The numpy reference the compiled lane loop is fuzzed and benchmarked
    against (``tests/core/test_ckernel.py``, ``bench kernels``).
    """

    __slots__ = ()
    COMPILED_LANES = False

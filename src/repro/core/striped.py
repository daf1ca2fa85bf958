"""Striped query-profile Smith-Waterman kernels (lazy-F eliminated).

:class:`repro.core.MultiSequenceWorkspace` already turns the batch axis into
the SIMD lane axis, but its inner loop still walks the target one position at
a time: ``n`` vector ops per query row, each touching ``k`` lanes.  This
module applies the two remaining tricks of the wide-SIMD Smith-Waterman
literature (Farrar's striped layout; Snytsar's "de(con)struction of the
lazy-F loop" -- see PAPERS.md):

* **Striped layout.**  The target axis ``j`` is split as ``j = c*seg + r``
  into ``p = ceil(n/seg)`` segments of ``seg`` positions.  The DP state is a
  ``(seg, p, k)`` block -- plane ``r`` holds position ``r`` of *every*
  segment of *every* lane -- so one numpy call advances ``p*k`` cells and the
  serial plane loop runs only ``seg ~ sqrt(n)`` times per query row instead
  of ``n`` times.  Within a segment, plane ``r-1`` is position ``j-1``, so
  the within-segment part of the horizontal gap chain rides along the plane
  loop for free (one fused ``maximum`` per plane).

* **Lazy-F elimination.**  Farrar's kernel corrects cross-segment gap
  carries by re-running the column loop to a fixpoint.  Here the correction
  is computed analytically in two vector phases: phase 2 takes each
  segment's end value ``tend[c]`` and resolves the carry into segment
  ``c+1`` (a carry can only cross a *whole* segment when some end value
  exceeds ``span = |gap|*seg``, so the serial segment chain is skipped on
  the overwhelming majority of rows); phase 3 broadcasts
  ``carry[c] + gap*(r+1)`` over the first ``d`` planes, where ``d`` is
  truncated to the depth the row maximum can still reach.  No fixpoint loop,
  no data-dependent iteration count on the fast path.

* **Narrow lanes with overflow recovery.**  The scan runs in int8 or int16
  lanes.  numpy integer arithmetic wraps rather than saturates, so the
  layout *emulates* saturation by construction: the padded-position profile
  score is exactly ``iinfo.min + span``, which makes the most negative
  reachable intermediate (``pad + gap*seg``) land on ``iinfo.min`` without
  wrapping, and the detection threshold ``cap = -iinfo.min - span - hi - 1``
  leaves enough headroom above that a row whose maximum first reaches
  ``cap`` is still exact.  Lanes whose running maximum crosses ``cap`` get a
  sticky per-lane overflow flag (lanes never mix, so garbage after the first
  crossing stays lane-local) and are transparently recomputed at the next
  wider dtype -- int8 -> int16 -> int32 -- with only the flagged sequences
  re-scanned.

The scores are bitwise identical to :class:`KernelWorkspace` /
:class:`MultiSequenceWorkspace` scans: the zero-clamp is applied after the
chain (same identity as :mod:`repro.core.multi_engine` --
``max_{i<=j}(max(C[i],0)+g*i) = max(max_{i<=j}(C[i]+g*i), g*j)``), and every
narrow-lane result is either provably unwrapped or flagged and recomputed.

:meth:`StripedMultiWorkspace.sw_best_scores` hands each rung's whole scan
to the compiled ``stripes`` loop of :mod:`repro.core.ckernel`: the same
three phases over the same block, with every sum truncated to the lane
dtype as numpy's are, so scores and overflow flags match this module's
numpy scan bit for bit.  :class:`NumpyStripedMultiWorkspace` (the
reference) runs the numpy scan, as does every workspace without a compiler.

The striped profile is built per scan, one ``np.take`` per query code from
a 256-entry lookup whose extremes over the codes actually scored also set
the lane limits.
"""

from __future__ import annotations

import math

import numpy as np

from ..obs import count_cells, get_metrics, is_enabled
from . import ckernel
from .multi_engine import PAD_CODE, MultiSequenceWorkspace
from .scoring import DEFAULT_SCORING, SCORE_DTYPE, Scoring

__all__ = [
    "LANE_MODES",
    "LaneLimits",
    "NumpyStripedMultiWorkspace",
    "StripedMultiWorkspace",
    "overflow_stats",
    "reset_overflow_stats",
    "score_bounds",
]

#: Accepted ``lane_mode`` values: the *starting* rung of the escalation
#: ladder (rungs the scoring scheme cannot fit are skipped automatically).
LANE_MODES = ("auto", "int8", "int16", "int32")

_LADDERS = {
    "auto": (np.int8, np.int16, SCORE_DTYPE),
    "int8": (np.int8, np.int16, SCORE_DTYPE),
    "int16": (np.int16, SCORE_DTYPE),
    "int32": (SCORE_DTYPE,),
}

#: Upper bound on the segment length.  ``seg ~ sqrt(n)`` balances the serial
#: plane loop against per-dispatch overhead; beyond 64 planes the dispatch
#: cost dominates any further vector-width gain.
MAX_SEG = 64

_OVERFLOW_STATS = {"lanes": 0, "recomputes": 0}


def _lookup(scoring: Scoring, query_codes, target_codes) -> tuple[np.ndarray, int, int]:
    """``(table, lo, hi)``: the ``(max query code + 1, 256)`` int64 lookup.

    Row ``c`` of each query code scores ``c`` against each target code;
    every other entry (``PAD_CODE`` included) is 0, as only real codes may
    be scored (scorings may index 4x4 matrices with them).  ``lo``/``hi``
    are the extremes of the scored entries.
    """
    n_rows = int(query_codes.max()) + 1 if query_codes.size else 0
    table = np.zeros((n_rows, 256), dtype=np.int64)
    for code in query_codes.tolist():
        table[code, target_codes] = scoring.substitution_row(code, target_codes)
    if not (query_codes.size and target_codes.size):
        return table, 0, 0
    scored = table[np.ix_(query_codes, target_codes)]
    return table, int(scored.min()), int(scored.max())


def score_bounds(scoring: Scoring, query_codes=range(4), target_codes=range(4)) -> tuple[int, int]:
    """``(lo, hi)`` bounds of the substitution scores over the given codes.

    The DNA alphabet by default.  Derived from the scoring object itself
    (not its ``match``/``mismatch`` summary fields, which for
    :class:`MatrixScoring` are the diagonal max and off-diagonal min, not
    global bounds).
    """
    q, t = (np.asarray(codes, dtype=np.uint8) for codes in (query_codes, target_codes))
    return _lookup(scoring, q, t)[1:]


class LaneLimits:
    """Saturation geometry of one lane dtype for one scoring scheme.

    ``span = |gap| * seg`` is the largest decay a gap chain suffers crossing
    one whole segment.  ``pad = iinfo.min + span`` is the padded-position
    profile score: the most negative reachable intermediate is
    ``pad + gap*seg = iinfo.min`` exactly, so nothing wraps below.
    ``cap = -iinfo.min - span - max(hi,0) - 1`` is the sticky overflow
    threshold: a row maximum that first reaches ``cap`` is still exact
    (``cap + hi <= iinfo.max``), anything at or above it flags the lane.
    """

    __slots__ = ("dtype", "seg", "gap", "span", "cap", "pad", "fits")

    def __init__(self, dtype, seg: int, gap: int, lo: int, hi: int) -> None:
        info = np.iinfo(dtype)
        self.dtype = np.dtype(dtype)
        self.seg = int(seg)
        self.gap = int(gap)
        self.span = (-self.gap) * self.seg
        self.cap = (-int(info.min)) - self.span - max(hi, 0) - 1
        self.pad = int(info.min) + self.span
        # Feasibility: the threshold leaves room for at least one real score
        # step, and every real profile entry is exactly representable (a
        # wrapped profile cast would corrupt scores *without* tripping the
        # overflow flag, so unfit dtypes must be skipped up front).
        self.fits = self.cap >= max(1, hi) and lo >= self.pad


def _pick_seg(n: int, dtype, gap: int, lo: int, hi: int) -> int:
    """Default segment length: ``~sqrt(n)``, clamped to what ``dtype`` fits.

    Returns 0 when no segment length makes the dtype feasible.
    """
    gi = -int(gap)
    info = np.iinfo(dtype)
    hm = max(hi, 0)
    seg_cap = ((-int(info.min)) - hm - 1 - max(1, hi)) // gi
    if lo < 0:
        seg_cap = min(seg_cap, (lo - int(info.min)) // gi)
    if seg_cap < 1:
        return 0
    base = max(1, math.isqrt(max(n, 1)))
    return min(base, seg_cap, MAX_SEG)


def overflow_stats() -> dict[str, int]:
    """Cumulative overflow-escalation counters (lanes flagged, recomputes)."""
    return dict(_OVERFLOW_STATS)


def reset_overflow_stats() -> None:
    for key in _OVERFLOW_STATS:
        _OVERFLOW_STATS[key] = 0


def _profile_table(
    codes: np.ndarray, s_codes: np.ndarray, lookup: np.ndarray, limits: LaneLimits
) -> np.ndarray:
    """The ``(n_codes, seg, p, k)`` striped profile of one packed batch.

    Block ``c`` holds, in plane ``r``, the scores of query code ``c``
    against target position ``r`` of every segment of every lane; padded
    positions hold :attr:`LaneLimits.pad`.  Only the query's codes are
    filled, one ``np.take`` each from the 256-entry ``lookup``.
    """
    k, n = codes.shape
    seg = limits.seg
    p = -(-n // seg)
    padded = np.full((k, p * seg), PAD_CODE, dtype=np.uint8)
    padded[:, :n] = codes
    striped = np.ascontiguousarray(padded.reshape(k, p, seg).transpose(2, 1, 0))
    table = np.empty((lookup.shape[0], seg, p, k), dtype=limits.dtype)
    row = np.empty(256, dtype=limits.dtype)
    for code in np.unique(s_codes).tolist():
        row[:] = lookup[code]
        row[PAD_CODE] = limits.pad
        np.take(row, striped, out=table[code])
    return table


class _StripedScan:
    """One narrow-lane pass over one packed batch: state plus the row kernel.

    Ping-pong ``(seg, p, k)`` state blocks with per-parity prebuilt plane
    views, so the hot row advance performs no slicing and no allocation.
    """

    __slots__ = (
        "_table", "_seg", "_p", "_k", "_gi", "_g", "_gseg", "_span", "_cap",
        "_u", "_diag0", "_carry", "_endh", "_c3", "_zplane", "_decay",
        "_best", "_rowmax", "_ovf", "_ovtmp", "_plans", "_parity",
    )

    def __init__(self, table: np.ndarray, limits: LaneLimits) -> None:
        dt = limits.dtype
        _, seg, p, k = table.shape
        self._table = table
        self._seg = seg
        self._p = p
        self._k = k
        self._gi = -limits.gap
        self._g = dt.type(limits.gap)
        self._gseg = dt.type(limits.gap * seg)
        self._span = limits.span
        self._cap = dt.type(limits.cap)
        h = np.zeros((seg, p, k), dtype=dt)
        t = np.zeros((seg, p, k), dtype=dt)
        self._u = np.empty((p, k), dtype=dt)
        self._diag0 = np.empty((p, k), dtype=dt)
        self._carry = np.empty((p, k), dtype=dt)
        self._endh = np.empty((p, k), dtype=dt)
        self._c3 = np.empty((seg, p, k), dtype=dt)
        # Clamp operand: a scalar 0 falls off numpy's vectorized inner loop
        # for integer maximum, an array operand does not.
        self._zplane = np.zeros((p, k), dtype=dt)
        self._decay = (dt.type(limits.gap) * np.arange(1, seg + 1, dtype=dt))[:, None, None]
        self._best = np.zeros(k, dtype=dt)
        self._rowmax = np.empty(k, dtype=dt)
        self._ovf = np.zeros(k, dtype=bool)
        self._ovtmp = np.empty(k, dtype=bool)
        self._plans = (self._plan(h, t), self._plan(t, h))
        self._parity = 0

    def _plan(self, prev_arr: np.ndarray, out_arr: np.ndarray) -> tuple:
        seg = self._seg
        pv = [prev_arr[r] for r in range(seg)]
        ov = [out_arr[r] for r in range(seg)]
        steps = tuple((ov[r], pv[r], pv[r - 1]) for r in range(1, seg))
        flat = out_arr.reshape(seg * self._p, self._k)
        return (ov[0], pv[0], pv[seg - 1], steps, out_arr, flat)

    def run(self, s_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stream the query; returns ``(best, overflowed)`` per lane."""
        row = self._row
        table = self._table
        planes = {code: tuple(table[code]) for code in np.unique(s_codes).tolist()}
        for ch in s_codes.tolist():
            row(planes[ch])
        return self._best.astype(SCORE_DTYPE), self._ovf

    def _row(self, pv: tuple) -> None:  # repro: kernel -- striped lazy-F row advance
        cur0, h0, hlast, steps, out_arr, flat = self._plans[self._parity]
        add_ = np.add
        max_ = np.maximum
        diag0 = self._diag0
        diag0[1:] = hlast[:-1]
        diag0[0] = 0
        u = self._u
        g = self._g
        # Phase 1: diagonal + vertical candidates, fused with the
        # within-segment horizontal chain (plane r-1 is position j-1).
        add_(diag0, pv[0], out=cur0)
        add_(h0, g, out=u)
        max_(cur0, u, out=cur0)
        prev = cur0
        r = 1
        for cur, h, hm1 in steps:
            add_(hm1, pv[r], out=cur)
            max_(h, prev, out=u)
            add_(u, g, out=u)
            max_(cur, u, out=cur)
            prev = cur
            r += 1
        # Phase 2: cross-segment carries.  A carry can cross a *whole*
        # segment only when some end value exceeds span, so the serial
        # segment chain (the one data-dependent loop) is almost never taken.
        carry = self._carry
        tm = int(prev.max())
        if tm > self._span:
            tm = self._chain(prev)
        else:
            carry[1:] = prev[:-1]
            carry[0] = 0
        # Phase 3: inject carries, truncated to the depth d the row maximum
        # can still reach (deeper planes would only receive values the final
        # zero-clamp dominates anyway).
        d = min(self._seg, max(0, (tm - 1) // self._gi))
        if d > 0:
            c3 = self._c3
            add_(carry[None, :, :], self._decay[:d], out=c3[:d])
            max_(out_arr[:d], c3[:d], out=out_arr[:d])
        max_(out_arr, self._zplane, out=out_arr)
        np.maximum.reduce(flat, axis=0, out=self._rowmax)
        max_(self._best, self._rowmax, out=self._best)
        np.greater_equal(self._rowmax, self._cap, out=self._ovtmp)
        np.logical_or(self._ovf, self._ovtmp, out=self._ovf)
        self._parity ^= 1

    def _chain(self, tend: np.ndarray) -> int:  # repro: kernel -- rare serial carry chain
        endh = self._endh
        gseg = self._gseg
        add_ = np.add
        max_ = np.maximum
        endh[0] = tend[0]
        prev = endh[0]
        for c in range(1, self._p):
            cur = endh[c]
            add_(prev, gseg, out=cur)
            max_(cur, tend[c], out=cur)
            prev = cur
        carry = self._carry
        carry[1:] = endh[:-1]
        carry[0] = 0
        return int(carry.max())


def _run_scan(codes, s_codes, lookup, limits, compiled) -> tuple[np.ndarray, np.ndarray]:
    """One rung over one packed batch: ``(best, overflowed)`` per lane."""
    table = _profile_table(codes, s_codes, lookup, limits)
    if not compiled:
        return _StripedScan(table, limits).run(s_codes)
    best = np.zeros(codes.shape[0], dtype=limits.dtype)
    overflowed = np.zeros(codes.shape[0], dtype=bool)
    ckernel.stripes(table, s_codes, limits.gap, limits.cap, best, overflowed)
    return best.astype(SCORE_DTYPE), overflowed


def _note_overflow(lanes_flagged: int) -> None:
    _OVERFLOW_STATS["lanes"] += lanes_flagged
    _OVERFLOW_STATS["recomputes"] += 1
    if is_enabled():
        metrics = get_metrics()
        metrics.counter("striped_overflow_lanes").inc(lanes_flagged)
        metrics.counter("striped_recomputes").inc()


class StripedMultiWorkspace:
    """Striped drop-in for :class:`MultiSequenceWorkspace` best-score scans.

    Same packed-batch contract (``codes`` is a ``(k, n)`` uint8 matrix padded
    with :data:`PAD_CODE`, ``lengths`` the per-lane real lengths) and the
    same result: :meth:`sw_best_scores` is bitwise equal to ``k`` independent
    :class:`KernelWorkspace` scans.  ``lane_mode`` picks the starting lane
    dtype of the escalation ladder (``"auto"`` starts at the narrowest dtype
    the scoring scheme fits); overflowed lanes are recomputed one rung wider
    with only the flagged sequences re-scanned.
    """

    __slots__ = ("scoring", "lengths", "lanes", "width", "lane_mode", "seg", "_codes", "_present")

    #: Whether :meth:`sw_best_scores` may run the compiled ``stripes`` loop;
    #: :class:`NumpyStripedMultiWorkspace` switches it off.
    COMPILED_STRIPES = True

    def __init__(
        self,
        codes: np.ndarray,
        lengths,
        scoring: Scoring = DEFAULT_SCORING,
        lane_mode: str = "auto",
        seg: int | None = None,
    ) -> None:
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        if codes.ndim != 2:
            raise ValueError("codes must be a (k, n) matrix")
        k, n = codes.shape
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.lengths.shape != (k,):
            raise ValueError("lengths must have one entry per lane")
        if self.lengths.size and int(self.lengths.max()) > n:
            raise ValueError("lane length exceeds the packed width")
        if lane_mode not in LANE_MODES:
            raise ValueError(f"lane_mode must be one of {LANE_MODES}")
        self.scoring = scoring
        self.lanes = k
        self.width = n
        self.lane_mode = lane_mode
        self.seg = seg
        self._codes = codes
        # The residue codes the targets use: the lookup scores these alone.
        counts = np.bincount(codes.ravel(), minlength=256)[:PAD_CODE]
        self._present = np.flatnonzero(counts).astype(np.uint8)

    @property
    def compiled(self) -> bool:
        """True when :meth:`sw_best_scores` runs the compiled striped scan."""
        return self.COMPILED_STRIPES and ckernel.load() is not None

    def _ladder(self, lo: int, hi: int) -> list[LaneLimits]:
        """The feasible lane dtypes for profile entries in ``[lo, hi]``,
        narrowest first, always ending in int32."""
        gap = int(self.scoring.gap)
        ladder = []
        for dt in _LADDERS[self.lane_mode]:
            seg = self.seg if self.seg is not None else _pick_seg(self.width, dt, gap, lo, hi)
            if seg < 1:
                continue
            limits = LaneLimits(dt, seg, gap, lo, hi)
            if limits.fits:
                ladder.append(limits)
        if not ladder:
            raise ValueError("no feasible lane dtype for this scoring scheme")
        return ladder

    def sw_best_scores(self, s_codes) -> np.ndarray:
        """Best local score of the query against every lane (:data:`SCORE_DTYPE`).

        Runs the ladder: scan every lane at the starting dtype, then re-scan
        only the overflow-flagged lanes one rung wider.  int32 results are
        exact by construction; should a lane flag even there (astronomical
        scoring magnitudes), it is handed to the classic
        :class:`MultiSequenceWorkspace`, whose int64 widening path has no
        ceiling.
        """
        s_codes = np.ascontiguousarray(s_codes, dtype=np.uint8)
        best = np.zeros(self.lanes, dtype=SCORE_DTYPE)
        m = int(s_codes.size)
        if self.lanes == 0 or self.width == 0 or m == 0:
            return best
        lookup, lo, hi = _lookup(self.scoring, np.unique(s_codes), self._present)
        ladder = self._ladder(lo, hi)
        compiled = self.compiled
        codes = self._codes
        lengths = self.lengths
        indices = np.arange(self.lanes, dtype=np.int64)
        for rung, limits in enumerate(ladder):
            count_cells(m * int(lengths.sum()))
            scores, ovf = _run_scan(codes, s_codes, lookup, limits, compiled)
            ok = ~ovf
            best[indices[ok]] = scores[ok]
            flagged = int(ovf.sum())
            if flagged == 0:
                break
            _note_overflow(flagged)
            indices = indices[ovf]
            codes = np.ascontiguousarray(codes[ovf])
            lengths = lengths[ovf]
            if rung + 1 == len(ladder):
                rescue = MultiSequenceWorkspace(codes, lengths, self.scoring)
                best[indices] = rescue.sw_best_scores(s_codes)
                break
        return best


class NumpyStripedMultiWorkspace(StripedMultiWorkspace):
    """:class:`StripedMultiWorkspace` with the compiled scan switched off.

    The numpy reference the compiled ``stripes`` loop is fuzzed and
    benchmarked against (``tests/core/test_ckernel.py``, ``bench kernels``).
    """

    __slots__ = ()
    COMPILED_STRIPES = False

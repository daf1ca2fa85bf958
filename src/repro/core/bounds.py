"""Admissible score ceilings for exact database-search pruning.

The search pipeline (ALAE-style, see PAPERS.md) skips the Smith-Waterman
scan of any database sequence whose score *ceiling* is provably below the
running top-k threshold.  Every function here that returns a ceiling must be
**admissible** -- ``ceiling(q, t) >= sw_score(q, t)`` for every pair, no
exceptions -- because pruning with an inexact bound silently changes
rankings.  The ``repro check`` rule BOUND001 enforces the contract
syntactically: each bound carries a ``# repro: admissible`` marker and is
registered in :data:`ADMISSIBLE_BOUNDS`, which the fuzz suite iterates to
verify domination against the real kernel.

Three tiers, in ascending cost order (:data:`TIER_ORDER`):

* ``length`` -- an alignment has at most ``min(m, n)`` substitution columns,
  each worth at most the best pair score; gap columns only subtract.
* ``composition`` -- per-letter counts cap how many high-scoring columns can
  exist at all, regardless of order.  With no positive mismatch score every
  positive column is an identical pair, giving the tight
  ``sum_c min(q_c, t_c) * max(0, S[c][c])`` form.
* ``kmer`` -- matches concentrate on identical diagonal runs; a run of
  length ``L`` contributes ``L - k + 1`` target k-mers that must also occur
  in the query.  Few shared k-mers therefore force either few matches or
  many separate runs, and each extra run costs at least one penalised
  (mismatch or gap) column.  See DESIGN.md section 5i for the closed form.

All bounds are vectorized over lanes: ``codes`` is one packed bucket's
padded ``(lanes, width)`` uint8 matrix (PAD rows out-of-alphabet codes never
count), that bucket's :class:`BoundIndex`, or a whole database's per-bucket
indexes, and ``lengths`` the real length of every lane, bucket after
bucket.  The index is the query-independent part of the composition and
k-mer tiers (letter counts and k-mer window ids), built once per bucket by
:func:`build_bound_index`; given raw codes, a bound builds the part it needs
on the spot, a lane block at a time.  Given indexes, the k-mer tier counts
every lane's hits in one compiled pass (:func:`repro.core.ckernel.kmer_hits`),
with :func:`kmer_hits`' numpy gather as the reference and the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import ckernel
from .scoring import Scoring

__all__ = [
    "ADMISSIBLE_BOUNDS",
    "DEFAULT_KMER_K",
    "MAX_KMER_K",
    "BoundIndex",
    "Lanes",
    "TIER_ORDER",
    "QueryBoundContext",
    "TieredFilter",
    "build_bound_index",
    "composition_bound",
    "kmer_bound",
    "kmer_hits",
    "kmer_id_dtype",
    "length_bound",
]

#: Tiers in ascending evaluation cost; a tiered filter runs them in this
#: order so the cheap bounds prune lanes before the expensive ones look.
TIER_ORDER = ("length", "composition", "kmer")

#: Window size of the k-mer tier.  4**6 = 4096 table slots: small enough to
#: rebuild per query, long enough that random sequences share few windows.
DEFAULT_KMER_K = 6

#: Largest window size: ids up to the sentinel ``4**15 = 2**30`` fit
#: ``uint32``, and the query table of a larger k would pass 1 GiB.
MAX_KMER_K = 15

#: Slots per lane block when counts or window ids are built, so the
#: transients stay well under 1 MiB however wide the bucket is.
KMER_SCRATCH_WINDOWS = 1 << 17

_ALPHABET = 4


def _check_kmer_k(k: int) -> int:
    if not 2 <= k <= MAX_KMER_K:
        raise ValueError(f"kmer_k must be between 2 and {MAX_KMER_K}, got {k}")
    return int(k)


def kmer_id_dtype(k: int) -> np.dtype:
    """Smallest unsigned dtype holding every window id and the sentinel ``4**k``."""
    if _ALPHABET ** _check_kmer_k(k) <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


@dataclass(frozen=True)
class BoundIndex:
    """Query-independent bound state of one packed bucket.

    ``counts`` is the ``(lanes, 4)`` int64 letter count of every lane.
    ``kmer_ids`` is the ``(lanes, max(0, width - k + 1))`` base-4 id of
    every length-``k`` window (first code most significant) in
    :func:`kmer_id_dtype` -- 2 bytes per slot up to ``k = 7``.  Windows
    touching padding or any non-ACGT code hold the sentinel id ``4**k``,
    which the query's presence table maps to False.  ``k`` is None (and
    ``kmer_ids`` None) when the index was built for the count tiers only.
    """

    k: int | None
    kmer_ids: np.ndarray | None
    counts: np.ndarray

    @property
    def nbytes(self) -> int:
        ids = 0 if self.kmer_ids is None else self.kmer_ids.nbytes
        return int(ids + self.counts.nbytes)


#: What a bound reads: one bucket's code matrix, its :class:`BoundIndex`, or
#: a whole database's per-bucket indexes.
Lanes = np.ndarray | BoundIndex | Sequence[BoundIndex]


def _indexes(lanes: BoundIndex | Sequence[BoundIndex]) -> list[BoundIndex]:
    """One bucket's index, or a database's per-bucket indexes, as a list."""
    return [lanes] if isinstance(lanes, BoundIndex) else list(lanes)


def _lane_blocks(codes: np.ndarray) -> Iterator[slice]:
    """Lane slices of about :data:`KMER_SCRATCH_WINDOWS` slots each."""
    lanes, width = codes.shape
    step = max(1, KMER_SCRATCH_WINDOWS // max(width, 1))
    for lo in range(0, lanes, step):
        yield slice(lo, min(lo + step, lanes))


def _window_ids(
    codes: np.ndarray, k: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Window ids of one lane block (see :class:`BoundIndex`).

    ``(lanes, max(0, width - k + 1))`` in :func:`kmer_id_dtype`, written to
    ``out`` when given; windows touching a code outside ``0..3`` get the
    sentinel ``4**k``.  Callers pass blocks from :func:`_lane_blocks`: the
    transients cost about three bytes per window.
    """
    codes = np.asarray(codes)
    n_windows = max(codes.shape[1] - k + 1, 0)
    if out is None:
        out = np.empty((codes.shape[0], n_windows), dtype=kmer_id_dtype(k))
    window = codes[:, :n_windows]
    np.bitwise_and(window, _ALPHABET - 1, out=out)
    touched = window >= _ALPHABET
    for i in range(1, k):
        window = codes[:, i : i + n_windows]
        out <<= 2
        out |= window & (_ALPHABET - 1)
        touched |= window >= _ALPHABET
    np.copyto(out, _ALPHABET**k, where=touched)
    return out


def build_bound_index(codes: np.ndarray, k: int | None = DEFAULT_KMER_K) -> BoundIndex:
    """Letter counts and k-mer window ids of a ``(lanes, width)`` code matrix.

    The one builder of :class:`BoundIndex`, memoised per database by
    :meth:`repro.seq.PackedDatabase.bound_index`.  Works a lane block at a
    time.  ``k=None`` builds the counts only.
    """
    codes = np.asarray(codes)
    lanes, width = codes.shape
    counts = np.empty((lanes, _ALPHABET), dtype=np.int64)
    ids: np.ndarray | None = None
    if k is not None:
        ids = np.empty((lanes, max(width - k + 1, 0)), dtype=kmer_id_dtype(k))
    for rows in _lane_blocks(codes):
        block = codes[rows]
        for c in range(_ALPHABET):
            counts[rows, c] = np.count_nonzero(block == c, axis=1)
        if k is not None and ids is not None:
            _window_ids(block, k, out=ids[rows])
    return BoundIndex(k, ids, counts)


class QueryBoundContext:
    """Per-query precomputation shared by every bound evaluation.

    Probes the scoring object into an explicit 4x4 matrix (works for both
    :class:`~repro.core.scoring.Scoring` and ``MatrixScoring``), and keeps
    the query's letter counts and (lazily) its k-mer presence table.
    """

    def __init__(
        self, query: np.ndarray, scoring: Scoring, kmer_k: int = DEFAULT_KMER_K
    ) -> None:
        self.query = np.asarray(query, dtype=np.uint8)
        self.query_len = int(self.query.size)
        self.scoring = scoring
        self.kmer_k = _check_kmer_k(kmer_k)
        matrix = np.array(
            [
                [scoring.pair_score(a, b) for b in range(_ALPHABET)]
                for a in range(_ALPHABET)
            ],
            dtype=np.int64,
        )
        self.matrix = matrix
        self.diag = matrix.diagonal().copy()
        self.d_max = int(self.diag.max())  # best identical-pair score
        self.s_max = int(matrix.max())  # best any-pair score
        off = matrix[~np.eye(_ALPHABET, dtype=bool)]
        self.off_max = int(off.max())  # best mismatch score
        self.gap = int(scoring.gap)
        self.q_counts = np.array(
            [int((self.query == c).sum()) for c in range(_ALPHABET)], dtype=np.int64
        )
        self.row_max = matrix.max(axis=1)
        self.col_max = matrix.max(axis=0)
        self._kmer_table: np.ndarray | None = None

    @property
    def run_penalty(self) -> int:
        """Cheapest penalised column separating two identical runs.

        Only meaningful when every mismatch scores negative
        (``off_max < 0``); the k-mer tier checks that before using it.
        """
        return min(-self.off_max, -self.gap)

    @property
    def kmer_table(self) -> np.ndarray:
        """``bool[4**k + 1]`` presence table of the query's k-mers (lazy).

        Indexed by :class:`BoundIndex` window ids; the last slot is the
        sentinel id and stays False, so windows touching padding or a
        non-ACGT code (on either side) never count.
        """
        if self._kmer_table is None:
            k = self.kmer_k
            table = np.zeros(_ALPHABET**k + 1, dtype=bool)
            table[_window_ids(self.query[np.newaxis, :], k)[0]] = True
            table[-1] = False
            self._kmer_table = table
        return self._kmer_table


def length_bound(
    ctx: QueryBoundContext, codes: Lanes, lengths: np.ndarray
) -> np.ndarray:  # repro: admissible
    """``min(m, n) * s_max``: the trivial per-pair ceiling.

    Admissible because a local alignment of ``q`` (length ``m``) and ``t``
    (length ``n``) has at most ``min(m, n)`` substitution columns, each
    scoring at most ``s_max``, while gap columns score ``gap < 0``.  The
    empty alignment makes every SW score >= 0, hence the clip.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.maximum(np.minimum(lengths, ctx.query_len) * ctx.s_max, 0)


def composition_bound(
    ctx: QueryBoundContext, codes: Lanes, lengths: np.ndarray
) -> np.ndarray:  # repro: admissible
    """Letter-count ceiling: pairing capacity caps the column scores.

    When no mismatch scores positive, every positive column aligns identical
    letters ``(c, c)``, and there can be at most ``min(q_c, t_c)`` of those:
    ``ceiling = sum_c min(q_c, t_c) * max(0, S[c][c])``.  With positive
    mismatch scores that argument fails, so the bound falls back to charging
    each letter its best row (query side) or column (target side) score --
    both one-sided overcounts -- and takes the smaller.
    """
    if isinstance(codes, np.ndarray):
        t_counts = build_bound_index(codes, None).counts
    else:
        t_counts = np.concatenate(
            [index.counts for index in _indexes(codes)]
            or [np.zeros((0, _ALPHABET), dtype=np.int64)]
        )
    if ctx.off_max <= 0:
        per_letter = np.minimum(ctx.q_counts[np.newaxis, :], t_counts)
        return per_letter @ np.maximum(ctx.diag, 0)
    query_side = int((ctx.q_counts * np.maximum(ctx.row_max, 0)).sum())
    target_side = t_counts @ np.maximum(ctx.col_max, 0)
    return np.minimum(target_side, query_side)


def _kmer_ids(ctx: QueryBoundContext, index: BoundIndex) -> np.ndarray:
    """``index``'s window ids, refused unless they are the k-mer tier's."""
    if index.k != ctx.kmer_k or index.kmer_ids is None:
        raise ValueError(
            f"bound index holds k={index.k} windows, the k-mer tier needs k={ctx.kmer_k}"
        )
    return index.kmer_ids


def _swept_hits(ctx: QueryBoundContext, codes: Lanes, lengths: np.ndarray) -> np.ndarray:
    """Every lane's k-mer hits: one compiled pass over all the indexes.

    :func:`kmer_hits` (the reference) runs instead on a code matrix, and
    bucket by bucket when the compiled path is off.
    """
    if isinstance(codes, np.ndarray):
        return kmer_hits(ctx, codes)
    indexes = _indexes(codes)
    ids = [_kmer_ids(ctx, index) for index in indexes]
    hits = ckernel.kmer_hits(ids, lengths, ctx.kmer_k, ctx.kmer_table)
    if hits is None:
        hits = np.concatenate(
            [kmer_hits(ctx, index) for index in indexes] or [np.zeros(0, dtype=np.int64)]
        )
    return hits


def kmer_hits(ctx: QueryBoundContext, codes: np.ndarray | BoundIndex) -> np.ndarray:
    """Per-lane count of target k-mer windows that also occur in the query.

    One gather of the query table over the window ids: the index's, or for
    raw codes ids built a lane block at a time.  Windows touching padding
    (or any out-of-alphabet code) hold the sentinel id and never count.
    """
    table = ctx.kmer_table
    if isinstance(codes, BoundIndex):
        return table[_kmer_ids(ctx, codes)].sum(axis=1, dtype=np.int64)
    codes = np.asarray(codes)
    hits = np.empty(codes.shape[0], dtype=np.int64)
    for rows in _lane_blocks(codes):
        ids = _window_ids(codes[rows], ctx.kmer_k)
        hits[rows] = table[ids].sum(axis=1, dtype=np.int64)
    return hits


def kmer_bound(
    ctx: QueryBoundContext, codes: Lanes, lengths: np.ndarray
) -> np.ndarray | None:  # repro: admissible
    """Diagonal-run ceiling from shared k-mer counts (DESIGN.md section 5i).

    Applicable only when every mismatch scores negative (otherwise matches
    need not sit on identical runs and the run argument collapses; the
    filter then skips this tier).  For an alignment whose identical-match
    columns form ``r`` maximal diagonal runs totalling ``c`` matches:

    * each run of length ``L`` yields ``max(0, L - k + 1)`` target windows
      that are also query k-mers, so ``H >= c - r*(k - 1)`` where ``H`` is
      the shared-k-mer count -- i.e. ``c <= H + r*(k - 1)``;
    * consecutive runs are separated by >= 1 penalised column, so
      ``score <= c*d_max - (r - 1)*pen`` with ``pen = min(-off_max, -gap)``.

    Maximising ``f(r) = min(H + r*(k-1), min(m, n)) * d_max - (r-1)*pen``
    over ``r >= 1``: f is concave piecewise-linear, so its integer maximum
    sits at ``r = 1``, at the smallest run count that saturates the
    ``min(m, n)`` cap, or one below it; the bound evaluates all three.
    """
    if ctx.off_max >= 0:
        return None
    lengths = np.asarray(lengths, dtype=np.int64)
    if ctx.d_max <= 0:
        # No column scores positive, so no alignment beats the empty one.
        return np.zeros(len(lengths), dtype=np.int64)
    k = ctx.kmer_k
    pen = ctx.run_penalty
    hits = _swept_hits(ctx, codes, lengths)
    cap = np.minimum(lengths, ctx.query_len)

    def f(runs: np.ndarray) -> np.ndarray:
        matches = np.minimum(hits + runs * (k - 1), cap)
        return matches * ctx.d_max - (runs - 1) * pen

    r_sat = np.maximum(1, -((hits - cap) // (k - 1)))  # ceil((cap - H)/(k-1))
    best = np.maximum(f(np.ones_like(cap)), f(r_sat))
    best = np.maximum(best, f(np.maximum(r_sat - 1, 1)))
    return np.maximum(best, 0)


#: Registry of every admissible ceiling, keyed by tier name.  The BOUND001
#: admissibility fuzz test iterates this dict, so adding a bound here (and
#: only here) is what puts it on the hook for verification.
ADMISSIBLE_BOUNDS: dict[
    str,
    Callable[[QueryBoundContext, Lanes, np.ndarray], Optional[np.ndarray]],
] = {
    "length": length_bound,
    "composition": composition_bound,
    "kmer": kmer_bound,
}


class TieredFilter:
    """Evaluate bound tiers in cost order, pruning lanes below a threshold.

    One instance per (query, scoring, tiers) triple, the two passes of
    :func:`repro.strategies.prefilter.pruned_search`: :meth:`ceilings`
    sweeps the whole database once, before any threshold exists, and
    :meth:`survivors` prunes the swept ceilings once the seed prefix has
    set one.  Pruning is strict (``ceiling < threshold``): a tie must
    survive because an equal score at a smaller index still displaces the
    current k-th hit.
    """

    def __init__(
        self,
        query: np.ndarray,
        scoring: Scoring,
        tiers: Sequence[str] = TIER_ORDER,
        kmer_k: int = DEFAULT_KMER_K,
    ) -> None:
        unknown = [t for t in tiers if t not in ADMISSIBLE_BOUNDS]
        if unknown:
            raise ValueError(f"unknown bound tiers {unknown!r}")
        self.ctx = QueryBoundContext(query, scoring, kmer_k)
        self.tiers = tuple(t for t in TIER_ORDER if t in tiers)
        #: Window size the bound index needs: None when the k-mer tier is
        #: off or inapplicable under this scoring (counts only, then).
        self.index_k = (
            self.ctx.kmer_k if "kmer" in self.tiers and self.ctx.off_max < 0 else None
        )

    def ceilings(
        self, lanes: Lanes, lengths: np.ndarray
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Pass 1: ``(combined, per_tier)`` ceilings for every lane.

        ``lanes`` is a bucket's code matrix or :class:`BoundIndex`, or a
        whole database's per-bucket indexes, and ``lengths`` every lane's
        length in the same order: each tier's closed form then runs once
        over all of the database's lanes.  Thresholdless: the search needs
        every lane's ceiling up front -- both to scan the highest-ceiling
        prefix first (strongest threshold earliest) and to prune the rest
        in one vectorized comparison once that threshold exists.
        ``combined`` is the min over applicable tiers (each admissible, so
        their min is); ``per_tier`` keeps the individual ceilings for prune
        attribution.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        # Float on purpose: +inf is the identity of the running min, and the
        # threshold these ceilings meet is itself a float (TopK.threshold).
        combined = np.full(len(lengths), np.inf, dtype=np.float64)  # repro: noqa[DTYPE002]
        per_tier: dict[str, np.ndarray] = {}
        for tier in self.tiers:
            values = ADMISSIBLE_BOUNDS[tier](self.ctx, lanes, lengths)
            if values is None:
                continue
            per_tier[tier] = values
            combined = np.minimum(combined, values)
        return combined, per_tier

    def survivors(
        self,
        combined: np.ndarray,
        per_tier: dict[str, np.ndarray],
        threshold: float,
    ) -> tuple[np.ndarray, dict[str, int]]:
        """Pass 2: ``(keep_mask, pruned_per_tier)`` from :meth:`ceilings`' output.

        A lane is pruned when its combined ceiling is strictly below
        ``threshold``, and each prune is attributed to the cheapest tier
        whose own ceiling proves it.  No bound is evaluated again.
        """
        keep = ~(combined < threshold)
        pruned: dict[str, int] = {}
        unattributed = np.flatnonzero(~keep)
        for tier, values in per_tier.items():
            if unattributed.size == 0:
                break
            hit = values[unattributed] < threshold
            n = int(hit.sum())
            if n:
                pruned[tier] = n
                unattributed = unattributed[~hit]
        return keep, pruned

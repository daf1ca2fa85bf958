"""Tiered exact prefiltering in front of the database search.

ALAE-style pruning (PAPERS.md): before paying the full Smith-Waterman scan
of a database sequence, check whether any cheap *admissible* score ceiling
(:mod:`repro.core.bounds`) already proves it cannot enter the top-k.  The
filter is exact by construction -- a sequence is dropped only when its
ceiling is strictly below the k-th score, and a tie must survive because
an equal score at a smaller index still displaces the k-th hit -- so
rankings stay bitwise identical to :func:`~repro.strategies.search.search_db_sequential`.

:func:`pruned_search` is the one pruned search, on every backend: one bound
sweep over the database's memoised bound index, the highest-ceiling *seed*
prefix scanned first to set a top-k threshold, the rest pruned against it
in one vectorized pass, and the survivors re-packed into fresh buckets
(:func:`repro.seq.db.pack_subset`) so lane occupancy stays high.  Both
subsets (seed, survivors) are scanned by :func:`scan_packed`, the one
search dispatch, on the worker pool when one is given, inline otherwise.
"""

from __future__ import annotations

import numpy as np

from ..core.bounds import TieredFilter
from ..core.topk import TopK
from ..obs import get_metrics, get_tracer, is_enabled
from ..plan import InlineExecutor, plan_search_buckets, search_blob
from ..seq.db import PackedDatabase, pack_subset

__all__ = [
    "AUTO_MIN_SEQUENCES",
    "PREFILTER_MODES",
    "pruned_search",
    "resolve_prefilter",
    "scan_packed",
]

#: Valid values of ``SearchConfig.prefilter`` / ``--prefilter``.
PREFILTER_MODES = ("off", "composition", "kmer", "auto")

#: Below this many sequences ``auto`` skips pruning entirely: the bound
#: evaluations and the extra packing cost more than the handful of DP lanes
#: they could save.
AUTO_MIN_SEQUENCES = 512

_MODE_TIERS = {
    "off": (),
    "composition": ("length", "composition"),
    "kmer": ("length", "composition", "kmer"),
}


def resolve_prefilter(mode: str, n_sequences: int) -> tuple[str, ...]:
    """Bound tiers a prefilter mode enables for a database of this size."""
    if mode not in PREFILTER_MODES:
        raise ValueError(f"prefilter must be one of {PREFILTER_MODES}, got {mode!r}")
    if mode == "auto":
        return _MODE_TIERS["kmer"] if n_sequences >= AUTO_MIN_SEQUENCES else ()
    return _MODE_TIERS[mode]


def default_seed_count(top_k: int) -> int:
    """Seed prefix size: enough lanes to saturate the top-k threshold."""
    return max(32, 2 * top_k)


def scan_packed(
    query: np.ndarray, packed: PackedDatabase, config, pool=None
) -> list[tuple[int, int]]:
    """Scan every lane of ``packed``: its ranked ``(score, index)`` top-k.

    Plans one graph of edge-free bucket tiles, flattens the buckets into
    one blob and runs it on ``pool``, or inline without one.
    The unpruned search and both of :func:`pruned_search`'s subsets go
    through here; a database without buckets costs no graph and no round
    trip.
    """
    if not packed.buckets:
        return []
    with get_tracer().span("plan_build", "computation"):
        graph = plan_search_buckets(
            packed, int(len(query)), top_k=config.top_k, kernel=config.kernel
        )
    return (pool or InlineExecutor()).run(graph, query, search_blob(packed), config.scoring).hits


def pruned_search(
    query: np.ndarray,
    packed: PackedDatabase,
    config,
    tiers: tuple[str, ...],
    pool=None,
) -> tuple[list[tuple[int, int]], int, int]:
    """Exact pruned search: sweep, seed, prune, re-pack, scan the survivors.

    Returns ``(ranked, sequences_pruned, cells_skipped)``: the merged
    ``(score, index)`` top-k -- identical to an unpruned scan -- and the
    sequences the bounds proved out of it with the DP cells they would have
    cost; the per-tier split goes to the ``prefilter_{tier}_pruned``
    counters.  All of it depends only on the database, the query and
    ``config``, never on the backend: merging two exact top-k's is exact,
    and the threshold is the seed prefix's k-th score however its graph
    was run.
    """
    query_len = int(len(query))
    top = TopK(config.top_k)
    if not packed.buckets:
        return [], 0, 0
    max_lanes = config.resolved_max_lanes
    max_waste = config.resolved_max_waste
    tracer = get_tracer()

    def scan(wanted: np.ndarray) -> None:
        with tracer.span("repack", "computation", sequences=int(wanted.size)):
            subset = pack_subset(packed, wanted, max_lanes, max_waste)
        top.merge(scan_packed(query, subset, config, pool))

    # Pass 1: one bound sweep over every lane.  The ceilings serve twice --
    # ordering the seed prefix (highest ceiling first, so the threshold is
    # as strong as it can be before any pruning decision) and the prune
    # comparison itself.  The query-independent half of the sweep (letter
    # counts, k-mer window ids) is built once and memoised on `packed`.
    tiered = TieredFilter(query, config.scoring, tiers)
    indexes = packed.bound_index(tiered.index_k)
    indices = np.concatenate([bucket.indices for bucket in packed.buckets])
    lengths = np.concatenate([bucket.lengths for bucket in packed.buckets])
    with tracer.span("prefilter_bounds", "computation", sequences=packed.n_sequences):
        combined, per_tier = tiered.ceilings(indexes, lengths)
    order = np.lexsort((indices, -combined))
    n_seeds = default_seed_count(config.top_k)
    scan(indices[order[:n_seeds]])

    # Pass 2: prune everything else whose ceiling is strictly below the
    # seeded threshold, then scan the survivors.
    threshold = top.threshold()
    rest = order[n_seeds:]
    with tracer.span("prefilter", "computation", sequences=int(rest.size)):
        keep, tier_pruned = tiered.survivors(
            combined[rest], {t: v[rest] for t, v in per_tier.items()}, threshold
        )
    dropped = indices[rest[~keep]]
    skipped = query_len * int(packed.lengths[dropped].sum())
    if is_enabled():
        metrics = get_metrics()
        metrics.counter("sequences_pruned").inc(int(dropped.size))
        metrics.counter("cells_skipped").inc(skipped)
        for tier, n in tier_pruned.items():
            metrics.counter(f"prefilter_{tier}_pruned").inc(n)
        if threshold != float("-inf"):
            metrics.gauge("prefilter_threshold").set(float(threshold))
    scan(indices[rest[keep]])
    return top.ranked(), int(dropped.size), skipped

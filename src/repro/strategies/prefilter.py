"""Tiered exact prefiltering in front of the database search.

ALAE-style pruning (PAPERS.md): before paying the full Smith-Waterman scan
of a database sequence, check whether any cheap *admissible* score ceiling
(:mod:`repro.core.bounds`) already proves it cannot enter the top-k.  The
filter is exact by construction -- a sequence is dropped only when its
ceiling is strictly below the current k-th score, and a tie must survive
because an equal score at a smaller index still displaces the k-th hit --
so rankings stay bitwise identical to :func:`~repro.strategies.search.search_db_sequential`.

Two integration shapes share the bound code:

* **Inline / sim** -- :func:`repro.plan.plan_search_buckets` grows the
  filter stage directly into the task graph (``seed`` -> ``filter`` ->
  ``dp`` tiles) and :class:`repro.plan.SearchRuntime` tightens the
  threshold progressively as tiles retire in id order.
* **Pool** -- :func:`pooled_pruned_search` here: the dynamic work queue
  cannot share a threshold across worker processes, so the coordinator
  scans the highest-ceiling *seed* prefix through the pool first, filters
  the remaining sequences against the seeded threshold in one vectorized
  pass, then re-packs the survivors into fresh buckets
  (:func:`repro.seq.db.pack_subset`) so lane occupancy stays high before
  shipping the second (now much smaller) graph.  The seed-time threshold is
  stale relative to the inline path's running one, but staleness only keeps
  *more* sequences -- never fewer -- so exactness is unaffected.
"""

from __future__ import annotations

import numpy as np

from ..core.bounds import DEFAULT_KMER_K, TieredFilter
from ..core.topk import TopK
from ..obs import get_metrics, get_tracer, is_enabled
from ..plan import plan_search_buckets, search_blob
from ..plan.runtime import empty_search_stats
from ..seq.db import PackedDatabase, pack_subset, shard_database

__all__ = [
    "AUTO_MIN_SEQUENCES",
    "PREFILTER_MODES",
    "pooled_pruned_search",
    "resolve_prefilter",
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


def pooled_pruned_search(
    query: np.ndarray,
    packed: PackedDatabase,
    config,
    pool,
    tiers: tuple[str, ...],
    kmer_k: int = DEFAULT_KMER_K,
) -> tuple[list[tuple[int, int]], dict]:
    """Exact pruned search over a worker pool: seed, filter, re-pack, ship.

    Returns ``(ranked, stats)`` where ``ranked`` is the merged
    ``(score, index)`` top-k -- identical to an unpruned scan -- and
    ``stats`` the :func:`~repro.plan.runtime.empty_search_stats`-shaped
    prune accounting.
    """
    query_len = int(len(query))
    top = TopK(config.top_k)
    stats = empty_search_stats()
    if not packed.buckets:
        return [], stats
    max_lanes = config.resolved_max_lanes
    max_waste = config.resolved_max_waste

    def ship(subset: PackedDatabase) -> None:
        # Honour the config's shard count, but never deal more shards than
        # the subset has sequences: the seed prefix can be smaller than the
        # shard count and empty shards would only waste worker groups.
        n_shards = min(getattr(config, "n_shards", 1), max(1, subset.n_sequences))
        if n_shards > 1:
            shards = shard_database(subset, n_shards, max_lanes, max_waste)
            graph = plan_search_buckets(
                subset,
                query_len,
                top_k=config.top_k,
                kernel=config.kernel,
                n_shards=n_shards,
                shards=shards,
            )
            blob = search_blob(shards)
        else:
            graph = plan_search_buckets(
                subset, query_len, top_k=config.top_k, kernel=config.kernel
            )
            blob = search_blob(subset)
        result = pool.run_search_plan(graph, query, blob, scoring=config.scoring)
        top.merge(result.hits)

    # Pass 1: one cheap bound sweep over every lane.  The ceilings serve
    # twice -- ordering the seed prefix (highest ceiling first, so the
    # threshold is as strong as it can be before any pruning decision) and
    # the prune comparison itself.
    tiered = TieredFilter(query, config.scoring, tiers, kmer_k)
    tracer = get_tracer()
    per_bucket = []
    # The query-independent half of the sweep (letter counts, k-mer window
    # ids) is built on the first pruned search and memoised on `packed`.
    indexes = packed.bound_index(tiered.index_k)
    with tracer.span("prefilter_bounds", "computation", sequences=packed.n_sequences):
        for bucket, index in zip(packed.buckets, indexes):
            combined, per_tier, bound_cells = tiered.ceilings(index, bucket.lengths)
            stats["bound_cells"] += bound_cells
            per_bucket.append((bucket, combined, per_tier))
    all_indices = np.concatenate(
        [b.indices for b, _, _ in per_bucket]
    )
    all_ceilings = np.concatenate([c for _, c, _ in per_bucket])
    order = np.lexsort((all_indices, -all_ceilings))
    seeds = all_indices[order[: default_seed_count(config.top_k)]]
    is_seed = np.zeros(packed.n_sequences, dtype=bool)
    is_seed[seeds] = True
    seed_db = pack_subset(packed, seeds, max_lanes, max_waste)
    if seed_db.buckets:
        ship(seed_db)

    # Pass 2: prune everything whose ceiling is strictly below the seeded
    # threshold.  The threshold is stale relative to the inline path's
    # running one, but staleness only keeps more lanes, never fewer.
    threshold = top.threshold()
    survivors: list[np.ndarray] = []
    with tracer.span(
        "prefilter", "computation", sequences=packed.n_sequences - len(seeds)
    ):
        for bucket, combined, per_tier in per_bucket:
            rest = np.flatnonzero(~is_seed[bucket.indices])
            if rest.size == 0:
                continue
            drop = combined[rest] < threshold
            survivors.append(bucket.indices[rest[~drop]])
            dropped = rest[drop]
            stats["sequences_pruned"] += int(dropped.size)
            stats["cells_skipped"] += query_len * int(bucket.lengths[dropped].sum())
            # Attribute each prune to the cheapest tier that proved it.
            unattributed = dropped
            for tier in tiered.tiers:
                if tier not in per_tier or unattributed.size == 0:
                    continue
                hit = per_tier[tier][unattributed] < threshold
                n = int(hit.sum())
                if n:
                    stats["tier_pruned"][tier] = (
                        stats["tier_pruned"].get(tier, 0) + n
                    )
                    unattributed = unattributed[~hit]
        stats["thresholds"].append(float(threshold))
    if is_enabled():
        metrics = get_metrics()
        metrics.counter("sequences_pruned").inc(stats["sequences_pruned"])
        metrics.counter("cells_skipped").inc(stats["cells_skipped"])
        for tier, n in stats["tier_pruned"].items():
            metrics.counter(f"prefilter_{tier}_pruned").inc(n)
        if threshold != float("-inf"):
            metrics.gauge("prefilter_threshold").set(float(threshold))

    kept = np.concatenate(survivors) if survivors else np.zeros(0, dtype=np.int64)
    if kept.size:
        ship(pack_subset(packed, kept, max_lanes, max_waste))
    return top.ranked(), stats

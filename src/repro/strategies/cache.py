"""Content-addressed result cache for database searches.

A database search is a pure function of (query codes, database content,
scoring scheme, ``top_k``, resolved prefilter tiers): every backend --
inline, pool, sim -- and every kernel produces the bitwise-identical
ranking (that is the repo's core invariant, enforced by the parity suites).
That purity makes results safely cacheable by *content*: the key is a sha1
over exactly the inputs the ranking depends on, so a hit can skip planning
and every DP tile outright.

Deliberately **excluded** from the key: ``kernel``, backend and packing
knobs.  Those change *how* the answer is computed, never *what* it is, so
a striped pool run can serve a later classic inline request for the same
search.  The database is identified by
:func:`repro.seq.db.content_digest` -- re-packing the same sequences into
different bucket geometry yields a different digest (geometry is part of
the packed content), which errs on the side of recomputing rather than
ever serving a stale entry.

Entries are bounded by an LRU (:class:`collections.OrderedDict` move-to-end
on hit, popitem(last=False) on overflow) and invalidated explicitly by
database digest when the caller knows content changed.  Hit / miss /
eviction counters are mirrored into :mod:`repro.obs` metrics so ledger
diffs show cache behaviour changes.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from ..core.scoring import Scoring
from ..obs import get_metrics, is_enabled

__all__ = [
    "DEFAULT_CACHE",
    "SearchCache",
    "cache_key",
    "scoring_signature",
]


def scoring_signature(scoring: Scoring) -> bytes:
    """Canonical bytes of a scoring scheme: the full 4x4 table plus gap.

    Probing :meth:`~repro.core.scoring.Scoring.pair_score` over the DNA code
    alphabet gives one uniform signature for both the match/mismatch scheme
    and :class:`~repro.core.scoring.MatrixScoring` -- two schemes that score
    every pair (and the gap) identically are interchangeable for ranking, so
    they *should* collide.
    """
    table = [scoring.pair_score(a, b) for a in range(4) for b in range(4)]
    table.append(scoring.gap)
    return np.asarray(table, dtype=np.int64).tobytes()


def cache_key(
    query: np.ndarray,
    db_digest: str,
    scoring: Scoring,
    top_k: int,
    tiers: tuple[str, ...],
) -> str:
    """sha1 content address of one search's ranking-relevant inputs.

    ``tiers`` are the *resolved* prefilter tiers, not the config string:
    "auto" resolves differently per database size, and although pruning
    never changes the ranking it does change the prune accounting carried
    in the result, which must round-trip exactly.
    """
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(query, dtype=np.int8).tobytes())
    h.update(db_digest.encode("ascii"))
    h.update(scoring_signature(scoring))
    h.update(int(top_k).to_bytes(8, "little"))
    h.update(",".join(tiers).encode("ascii"))
    return h.hexdigest()


class SearchCache:
    """Bounded LRU of :class:`~repro.strategies.search.SearchResult` values.

    Stored results are treated as immutable masters: :meth:`get` hands back
    a shallow *copy* (fresh ``hits`` list, ``cached=True``, the caller's own
    wall clock) so callers mutating their result cannot corrupt the cached
    entry, and so a hit is distinguishable from the run that populated it.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, tuple[str, object]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str, n: int = 1) -> None:
        if is_enabled():
            get_metrics().counter(name).inc(n)

    def get(self, key: str, wall_seconds: float = 0.0):
        """The cached result copy for ``key``, or ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._count("search_cache_misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._count("search_cache_hits")
        _, result = entry
        return replace(
            result,
            hits=list(result.hits),
            wall_seconds=wall_seconds,
            cached=True,
        )

    def put(self, key: str, db_digest: str, result) -> None:
        """Store ``result`` under ``key``, evicting the LRU tail on overflow."""
        master = replace(result, hits=list(result.hits), cached=False)
        self._entries[key] = (db_digest, master)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count("search_cache_evictions")

    def invalidate(self, db_digest: str) -> int:
        """Drop every entry computed against ``db_digest``; returns the count.

        Content addressing already prevents stale *hits* (a changed database
        hashes to a new digest, hence new keys); invalidation exists to
        release memory for databases the caller knows are gone.
        """
        stale = [k for k, (d, _) in self._entries.items() if d == db_digest]
        for k in stale:
            del self._entries[k]
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Process-wide cache used by ``search_db(config.cache=True)`` and the CLI.
DEFAULT_CACHE = SearchCache()

"""The content-addressed search result cache.

A database search is a pure function of its ranking inputs, so a hit must
return an equal result without running any of the search machinery (zero
tile spans), whatever kernel or backend computed the stored entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.seq import pack_database, random_dna, synthetic_database
from repro.seq.db import content_digest
from repro.strategies import (
    DEFAULT_CACHE,
    SearchCache,
    SearchConfig,
    cache_key,
    search_db,
    search_db_sequential,
)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(77)
    db = synthetic_database(n=140, min_length=30, max_length=160, rng=rng)
    packed = pack_database(db)
    query = random_dna(150, rng)
    return query, packed


@pytest.fixture(scope="module")
def reference(workload):
    query, packed = workload
    return search_db_sequential(query, packed, SearchConfig(top_k=8)).scores()


@pytest.fixture(autouse=True)
def fresh_cache():
    DEFAULT_CACHE.clear()
    yield
    DEFAULT_CACHE.clear()


class TestResultCache:
    def test_hit_returns_an_identical_result(self, workload, reference):
        query, packed = workload
        config = SearchConfig(top_k=8, cache=True, prefilter="off")
        first = search_db(query, packed, config)
        second = search_db(query, packed, config)
        assert not first.cached and second.cached
        assert second.scores() == first.scores() == reference
        assert second.hits == first.hits
        assert second.n_sequences == first.n_sequences
        assert second.total_cells == first.total_cells

    def test_hit_skips_all_dp_work(self, workload):
        query, packed = workload
        config = SearchConfig(top_k=8, cache=True, prefilter="off")
        search_db(query, packed, config)  # warm
        with obs.observed("coordinator") as (tracer, _):
            hit = search_db(query, packed, config)
        assert hit.cached
        names = [span.name for span in tracer.spans]
        assert names == ["cache_probe"], "a cache hit must plan and scan nothing"

    def test_key_ignores_kernel_and_backend(self, workload):
        from repro.parallel import AlignmentWorkerPool

        query, packed = workload
        warm = SearchConfig(top_k=8, cache=True, kernel="striped")
        with AlignmentWorkerPool(n_workers=2) as pool:
            assert not search_db(query, packed, warm, pool=pool).cached
        probe = SearchConfig(top_k=8, cache=True, kernel="classic")
        assert search_db(query, packed, probe).cached

    def test_key_covers_ranking_inputs(self, workload):
        query, packed = workload
        search_db(query, packed, SearchConfig(top_k=8, cache=True))
        # Different k, different scoring, different query: all misses.
        assert not search_db(query, packed, SearchConfig(top_k=5, cache=True)).cached
        from repro.core.scoring import Scoring

        other = SearchConfig(top_k=8, cache=True, scoring=Scoring(2, -1, -2))
        assert not search_db(query, packed, other).cached
        assert not search_db(query[:-1], packed, SearchConfig(top_k=8, cache=True)).cached

    def test_database_change_changes_the_digest(self, workload):
        _, packed = workload
        other = pack_database(
            synthetic_database(n=140, min_length=30, max_length=160, rng=5)
        )
        assert content_digest(packed) != content_digest(other)

    def test_mutating_a_hit_does_not_corrupt_the_master(self, workload):
        query, packed = workload
        config = SearchConfig(top_k=8, cache=True)
        search_db(query, packed, config)
        hit = search_db(query, packed, config)
        hit.hits.clear()
        again = search_db(query, packed, config)
        assert again.cached and len(again.hits) == 8

    def test_lru_eviction_and_counters(self):
        cache = SearchCache(maxsize=2)
        from repro.strategies.search import SearchResult

        def result(i):
            return SearchResult(
                hits=[], n_sequences=i, total_cells=1, wall_seconds=0.0
            )

        cache.put("a", "d1", result(1))
        cache.put("b", "d1", result(2))
        assert cache.get("a") is not None  # refresh a: b becomes the LRU tail
        cache.put("c", "d2", result(3))
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert cache.stats() == {
            "entries": 2, "hits": 3, "misses": 1, "evictions": 1,
        }

    def test_invalidate_by_digest(self):
        cache = SearchCache(maxsize=8)
        from repro.strategies.search import SearchResult

        r = SearchResult(hits=[], n_sequences=1, total_cells=1, wall_seconds=0.0)
        cache.put("a", "d1", r)
        cache.put("b", "d1", r)
        cache.put("c", "d2", r)
        assert cache.invalidate("d1") == 2
        assert cache.get("a") is None and cache.get("c") is not None

    def test_cache_key_is_stable_and_sensitive(self, workload):
        query, packed = workload
        from repro.core.scoring import DEFAULT_SCORING
        from repro.seq.alphabet import encode

        q = encode(query)
        digest = content_digest(packed)
        k1 = cache_key(q, digest, DEFAULT_SCORING, 8, ())
        assert k1 == cache_key(q, digest, DEFAULT_SCORING, 8, ())
        assert k1 != cache_key(q, digest, DEFAULT_SCORING, 9, ())
        assert k1 != cache_key(q, digest, DEFAULT_SCORING, 8, ("length",))
        assert k1 != cache_key(q, "other", DEFAULT_SCORING, 8, ())

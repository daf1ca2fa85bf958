"""Database search: deterministic top-k, batched/sequential/pool parity."""

import numpy as np
import pytest

from repro.core.topk import TopK
from repro.plan import wavefront_spec
from repro.seq import pack_database, random_dna, synthetic_database
from repro.seq.db import PackedBucket, PackedDatabase
from repro.strategies import (
    SearchConfig,
    search_db,
    search_db_sequential,
)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(404)
    db = synthetic_database(n=90, min_length=15, max_length=150, rng=rng)
    query = random_dna(200, rng)
    return query, db


class TestTopK:
    def test_keeps_best_k(self):
        top = TopK(2)
        for score, idx in [(5, 0), (9, 1), (7, 2), (1, 3)]:
            top.push(score, idx)
        assert top.ranked() == [(9, 1), (7, 2)]

    def test_ties_break_by_database_order(self):
        top = TopK(3)
        for idx in (4, 2, 9, 7):
            top.push(5, idx)
        assert top.ranked() == [(5, 2), (5, 4), (5, 7)]

    def test_insertion_order_independent(self):
        entries = [(s, i) for i, s in enumerate([3, 8, 8, 1, 5, 8, 2, 5])]
        rng = np.random.default_rng(0)
        expected = None
        for _ in range(10):
            shuffled = list(entries)
            rng.shuffle(shuffled)
            top = TopK(4)
            for score, idx in shuffled:
                top.push(score, idx)
            expected = expected or top.ranked()
            assert top.ranked() == expected

    def test_merge_equals_single_heap(self):
        entries = [(int(s), i) for i, s in enumerate(np.random.default_rng(1).integers(0, 20, 30))]
        whole = TopK(5)
        for score, idx in entries:
            whole.push(score, idx)
        left, right = TopK(5), TopK(5)
        for score, idx in entries[:15]:
            left.push(score, idx)
        for score, idx in entries[15:]:
            right.push(score, idx)
        merged = TopK(5)
        merged.merge(left.items())
        merged.merge(right.items())
        assert merged.ranked() == whole.ranked()

    def test_k_zero_and_validation(self):
        top = TopK(0)
        top.push(10, 0)
        assert top.ranked() == []
        with pytest.raises(ValueError):
            TopK(-1)

    def test_threshold_is_minus_inf_while_underfull(self):
        top = TopK(3)
        assert top.threshold() == float("-inf")
        top.push(9, 0)
        top.push(5, 1)
        assert top.threshold() == float("-inf")

    def test_threshold_is_kth_score_when_full(self):
        top = TopK(3)
        for score, idx in [(9, 0), (5, 1), (7, 2), (1, 3)]:
            top.push(score, idx)
        assert top.threshold() == 5

    def test_threshold_on_ties(self):
        # Equal scores fill the heap; the threshold is that tied score, and
        # pruning must stay strict (<) so other tied sequences still get
        # scanned -- an equal score at a smaller index displaces the k-th.
        top = TopK(2)
        top.push(5, 4)
        top.push(5, 9)
        assert top.threshold() == 5
        top.push(5, 2)
        assert top.threshold() == 5
        assert top.ranked() == [(5, 2), (5, 4)]

    def test_threshold_k_zero_prunes_everything(self):
        assert TopK(0).threshold() == float("inf")


class TestSearchDb:
    def test_batched_matches_sequential(self, workload):
        query, db = workload
        config = SearchConfig(top_k=12, max_lanes=16)
        batched = search_db(query, db, config)
        sequential = search_db_sequential(query, db, config)
        assert batched.scores() == sequential.scores()
        assert [h.name for h in batched.hits] == [h.name for h in sequential.hits]
        assert batched.total_cells == sequential.total_cells

    def test_parity_survives_heavy_padding_and_empty_lanes(self, rng):
        # Degenerate length mix: forced padding tails and a zero-length record.
        records = [("long", random_dna(120, rng)), ("tiny", random_dna(1, rng)),
                   ("empty", random_dna(0, rng)), ("mid", random_dna(60, rng))]
        packed = pack_database(records, max_lanes=4, max_waste=0.99)
        query = random_dna(80, rng)
        config = SearchConfig(top_k=4)
        assert search_db(query, packed, config).scores() == \
            search_db_sequential(query, packed, config).scores()

    def test_accepts_prepacked_database(self, workload):
        query, db = workload
        config = SearchConfig(top_k=5, max_lanes=16)
        packed = pack_database(db, max_lanes=16)
        assert search_db(query, packed, config).scores() == \
            search_db(query, db, config).scores()

    def test_empty_database(self, workload):
        query, _ = workload
        result = search_db(query, pack_database([]), SearchConfig(top_k=3))
        assert result.hits == []
        assert result.n_sequences == 0

    def test_hits_carry_names_and_lengths(self, workload):
        query, db = workload
        result = search_db(query, db, SearchConfig(top_k=3, max_lanes=16))
        for hit in result.hits:
            assert hit.name == db[hit.index].name
            assert hit.length == len(db[hit.index].codes)

    def test_result_accounting(self, workload):
        query, db = workload
        result = search_db(query, db, SearchConfig(top_k=3, max_lanes=16))
        assert result.total_cells == len(query) * sum(len(r.codes) for r in db)
        assert result.wall_seconds > 0
        assert result.gcups > 0
        assert result.backend == "batched"


class TestPoolSearch:
    def test_pool_matches_sequential(self, workload):
        from repro.parallel import AlignmentWorkerPool

        query, db = workload
        config = SearchConfig(top_k=10, max_lanes=16)
        expected = search_db_sequential(query, db, config).scores()
        with AlignmentWorkerPool(n_workers=3) as pool:
            first = search_db(query, db, config, pool=pool)
            # A second search proves the work queue is clean between jobs.
            second = search_db(query, db, config, pool=pool)
            empty = search_db(query, pack_database([]), config, pool=pool)
        assert first.scores() == expected
        assert second.scores() == expected
        assert first.backend == "pool" and first.n_workers == 3
        assert empty.hits == []

    def test_worker_error_fails_search_but_not_pool(self, workload):
        from repro.parallel import AlignmentWorkerPool
        from repro.parallel.pool import PoolJobError

        query, db = workload
        config = SearchConfig(top_k=5, max_lanes=16)
        good = pack_database(db, max_lanes=16)
        bad_bucket = PackedBucket(
            codes=good.buckets[0].codes,
            lengths=good.buckets[0].lengths + 10_000,  # exceeds the packed width
            indices=good.buckets[0].indices,
        )
        bad = PackedDatabase(
            buckets=[bad_bucket] + good.buckets[1:],
            names=good.names,
            lengths=good.lengths,
        )
        expected = search_db_sequential(query, good, config).scores()
        with AlignmentWorkerPool(n_workers=2) as pool:
            with pytest.raises(PoolJobError):
                search_db(query, bad, config, pool=pool)
            # The queue was drained: the next search must be correct.
            assert search_db(query, good, config, pool=pool).scores() == expected

    def test_pool_then_pairwise_jobs_coexist(self, rng):
        from repro.parallel import AlignmentWorkerPool

        db = synthetic_database(n=20, min_length=20, max_length=60, rng=rng)
        query = random_dna(50, rng)
        config = SearchConfig(top_k=3, max_lanes=8)
        expected = search_db_sequential(query, db, config).scores()
        s, t = random_dna(300, rng), random_dna(300, rng)
        spec = wavefront_spec(n_procs=2)
        with AlignmentWorkerPool(n_workers=2) as pool:
            regions_before = pool.run_plan(spec, s, t).alignments
            assert search_db(query, db, config, pool=pool).scores() == expected
            regions_after = pool.run_plan(spec, s, t).alignments
        assert [r.region for r in regions_before] == [r.region for r in regions_after]

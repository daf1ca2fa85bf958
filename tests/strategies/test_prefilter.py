"""Exact score-bound pruning: admissibility fuzz and ranking parity.

The prefilter is only allowed to exist because it provably changes nothing:
every ceiling in :data:`repro.core.bounds.ADMISSIBLE_BOUNDS` must
over-estimate the true Smith-Waterman score for *every* sequence (the
admissibility fuzz -- the test BOUND001 points at), and the pruned search
must return bitwise-identical rankings to the sequential reference across
all backends, kernels and k values (the exactness fuzz).  The adversarial
databases plant duplicates, ties, sequences whose best score sits exactly
at the threshold, and composition-skewed decoys -- the cases where an
off-by-one in the strict ``<`` prune or a one-short ceiling would show.
"""

import numpy as np
import pytest

from repro.core.bounds import (
    ADMISSIBLE_BOUNDS,
    DEFAULT_KMER_K,
    QueryBoundContext,
    TieredFilter,
)
from repro.core.scoring import TRANSITION_TRANSVERSION, MatrixScoring, Scoring
from repro.plan import (
    InlineExecutor,
    SimExecutor,
    plan_search_buckets,
    search_blob,
)
from repro.seq import biased_dna, mutate, pack_database, random_dna
from repro.seq.db import pack_subset
from repro.strategies import (
    AUTO_MIN_SEQUENCES,
    SearchConfig,
    resolve_prefilter,
    search_db,
    search_db_sequential,
)
from repro.strategies.search import sequential_best_score

SCORINGS = [
    Scoring(match=1, mismatch=-1, gap=-2),
    Scoring(match=1, mismatch=-3, gap=-4),
    Scoring(match=2, mismatch=0, gap=-1),  # non-negative mismatch: no kmer tier
    TRANSITION_TRANSVERSION,
    MatrixScoring(
        gap=-8,
        matrix=(
            (5, -4, -4, -4),
            (-4, 5, -4, -4),
            (-4, -4, 5, -4),
            (-4, -4, -4, 5),
        ),
    ),
]


def adversarial_db(rng: np.random.Generator, query: np.ndarray):
    """A database built to break sloppy pruning.

    Homologs (mutated query substrings) that must rank on top, exact
    duplicates of one homolog (tie at the same score -- the strict ``<``
    prune must keep both), verbatim query copies (ceiling == score ==
    threshold once k fills), composition-skewed decoys, zero/one-length
    degenerates, and uniform background.
    """
    records = []
    span = max(8, len(query) // 2)
    hom = mutate(query[: span], 0.05, rng)
    records.append(("hom_a", hom))
    records.append(("hom_dup1", hom.copy()))
    records.append(("hom_dup2", hom.copy()))
    records.append(("query_copy", query.copy()))
    records.append(("query_prefix", query[: span].copy()))
    records.append(("empty", np.zeros(0, dtype=np.uint8)))
    records.append(("single", random_dna(1, rng)))
    records.append(("at_skew", biased_dna(span, 0.05, rng)))
    records.append(("gc_skew", biased_dna(span, 0.95, rng)))
    for i in range(20):
        records.append((f"bg{i}", random_dna(int(rng.integers(5, 2 * span)), rng)))
    return records


class TestAdmissibility:
    """Every registered bound over-estimates every true score (BOUND001's test)."""

    @pytest.mark.parametrize("scoring", SCORINGS, ids=lambda s: repr(s)[:30])
    @pytest.mark.parametrize("tier", sorted(ADMISSIBLE_BOUNDS))
    def test_ceiling_dominates_true_score(self, tier, scoring):
        rng = np.random.default_rng(sum(map(ord, tier)))
        query = random_dna(60, rng)
        records = adversarial_db(rng, query)
        packed = pack_database(records, max_lanes=8)
        ctx = QueryBoundContext(query, scoring, DEFAULT_KMER_K)
        bound = ADMISSIBLE_BOUNDS[tier]
        for bucket in packed.buckets:
            ceilings = bound(ctx, bucket.codes, bucket.lengths)
            if ceilings is None:  # tier not applicable under this scoring
                continue
            for lane in range(bucket.lanes):
                width = int(bucket.lengths[lane])
                true = sequential_best_score(
                    query, bucket.codes[lane, :width], scoring
                )
                assert ceilings[lane] >= true, (
                    f"{tier} under-estimated lane {lane}: "
                    f"ceiling {ceilings[lane]} < true score {true}"
                )

    def test_combined_ceiling_is_admissible_too(self):
        rng = np.random.default_rng(7)
        scoring = Scoring(match=1, mismatch=-3, gap=-4)
        query = random_dna(80, rng)
        packed = pack_database(adversarial_db(rng, query), max_lanes=8)
        tiered = TieredFilter(query, scoring)
        for bucket in packed.buckets:
            combined, _, _ = tiered.ceilings(bucket.codes, bucket.lengths)
            for lane in range(bucket.lanes):
                width = int(bucket.lengths[lane])
                true = sequential_best_score(query, bucket.codes[lane, :width], scoring)
                assert combined[lane] >= true


class TestKmerHits:
    """``kmer_hits`` counts the same windows whatever its lane blocking."""

    @staticmethod
    def naive_hits(query, codes, k):
        kmers = {tuple(query[i : i + k]) for i in range(len(query) - k + 1)}
        return [
            sum(
                1
                for i in range(codes.shape[1] - k + 1)
                if all(c < 4 for c in lane[i : i + k]) and tuple(lane[i : i + k]) in kmers
            )
            for lane in codes
        ]

    @pytest.mark.parametrize("scratch", [1, 7, 40, 1 << 17])
    def test_blocks_match_per_lane_count(self, monkeypatch, scratch):
        import repro.core.bounds as bounds

        monkeypatch.setattr(bounds, "KMER_SCRATCH_WINDOWS", scratch)
        rng = np.random.default_rng(scratch)
        query = random_dna(40, rng)
        ctx = QueryBoundContext(query, Scoring(match=1, mismatch=-3, gap=-4), 3)
        codes = rng.integers(0, 4, size=(11, 14), dtype=np.uint8)
        codes[:3] = np.resize(query[:14], 14)  # lanes full of shared windows
        codes[4, 9:] = 4  # padding and an out-of-alphabet code never count
        codes[6, 2] = 7
        hits = bounds.kmer_hits(ctx, codes)
        assert hits.dtype == np.int64
        assert hits.tolist() == self.naive_hits(query, codes, 3)

    def test_short_and_empty_buckets(self):
        from repro.core.bounds import kmer_hits

        ctx = QueryBoundContext(random_dna(20, np.random.default_rng(0)), Scoring(), 6)
        assert kmer_hits(ctx, np.zeros((3, 5), np.uint8)).tolist() == [0, 0, 0]
        assert kmer_hits(ctx, np.zeros((0, 9), np.uint8)).tolist() == []


class TestResolvePrefilter:
    def test_modes(self):
        assert resolve_prefilter("off", 10**6) == ()
        assert resolve_prefilter("composition", 1) == ("length", "composition")
        assert resolve_prefilter("kmer", 1) == ("length", "composition", "kmer")

    def test_auto_gates_on_database_size(self):
        assert resolve_prefilter("auto", AUTO_MIN_SEQUENCES - 1) == ()
        assert resolve_prefilter("auto", AUTO_MIN_SEQUENCES) == (
            "length",
            "composition",
            "kmer",
        )

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="prefilter"):
            resolve_prefilter("always", 100)


class TestExactness:
    """Pruned rankings are bitwise-identical to the sequential reference."""

    @pytest.mark.parametrize("kernel", ["classic", "striped"])
    @pytest.mark.parametrize("top_k", [1, 10, 10**6])
    def test_inline_matches_sequential(self, top_k, kernel):
        rng = np.random.default_rng(top_k % 101 + (kernel == "striped"))
        query = random_dna(90, rng)
        db = adversarial_db(rng, query)
        scoring = Scoring(match=1, mismatch=-3, gap=-4)
        base = SearchConfig(top_k=top_k, max_lanes=8, scoring=scoring, kernel=kernel)
        expected = search_db_sequential(query, db, base).scores()
        for mode in ("off", "composition", "kmer"):
            config = SearchConfig(
                top_k=top_k, max_lanes=8, scoring=scoring, kernel=kernel,
                prefilter=mode,
            )
            assert search_db(query, db, config).scores() == expected, mode

    @pytest.mark.parametrize("scoring", SCORINGS, ids=lambda s: repr(s)[:30])
    def test_inline_matches_sequential_across_scorings(self, scoring):
        rng = np.random.default_rng(SCORINGS.index(scoring) + 100)
        query = random_dna(70, rng)
        db = adversarial_db(rng, query)
        config = SearchConfig(top_k=5, max_lanes=8, scoring=scoring, prefilter="kmer")
        expected = search_db_sequential(query, db, config).scores()
        assert search_db(query, db, config).scores() == expected

    def test_random_fuzz_rounds(self):
        scoring = Scoring(match=1, mismatch=-3, gap=-4)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            query = random_dna(int(rng.integers(20, 120)), rng)
            db = adversarial_db(rng, query)
            config = SearchConfig(top_k=7, max_lanes=8, scoring=scoring, prefilter="kmer")
            assert (
                search_db(query, db, config).scores()
                == search_db_sequential(query, db, config).scores()
            ), f"seed {seed}"

    @pytest.mark.parametrize("kernel", ["classic", "striped"])
    def test_pool_matches_sequential(self, kernel):
        from repro.parallel import AlignmentWorkerPool

        rng = np.random.default_rng(31)
        query = random_dna(90, rng)
        db = adversarial_db(rng, query)
        scoring = Scoring(match=1, mismatch=-3, gap=-4)
        config = SearchConfig(
            top_k=5, max_lanes=8, scoring=scoring, kernel=kernel, prefilter="kmer"
        )
        expected = search_db_sequential(query, db, config).scores()
        with AlignmentWorkerPool(n_workers=2) as pool:
            result = search_db(query, db, config, pool=pool)
        assert result.scores() == expected
        assert result.backend == "pool"

    @pytest.mark.parametrize("kernel", ["classic", "striped"])
    def test_sim_matches_sequential(self, kernel):
        rng = np.random.default_rng(53)
        query = random_dna(90, rng)
        db = adversarial_db(rng, query)
        scoring = Scoring(match=1, mismatch=-3, gap=-4)
        config = SearchConfig(top_k=5, scoring=scoring, kernel=kernel)
        packed = pack_database(db, max_lanes=8)
        graph = plan_search_buckets(
            packed, len(query), top_k=5, kernel=kernel,
            prefilter=("length", "composition", "kmer"),
            seed_count=6,  # smaller than the database so filter tiles exist
        )
        executed = SimExecutor().run(graph, query, search_blob(packed), scoring)
        expected = search_db_sequential(query, packed, config).scores()
        assert [(s, i) for s, i in executed.hits] == expected
        assert executed.extras["sim"]["total_time"] > 0
        assert "filter" in executed.extras["sim"]["stage_seconds"]

    def test_inline_prunes_and_accounts(self):
        """On a prunable workload the filter actually fires and the result
        carries the accounting (not just a no-op that trivially matches)."""
        rng = np.random.default_rng(11)
        scoring = Scoring(match=1, mismatch=-3, gap=-4)
        query = random_dna(300, rng)
        db = [(f"bg{i}", random_dna(int(rng.integers(40, 200)), rng)) for i in range(120)]
        db += [(f"hom{i}", mutate(query[:150], 0.05, rng)) for i in range(5)]
        config = SearchConfig(top_k=5, max_lanes=16, scoring=scoring, prefilter="kmer")
        result = search_db(query, db, config)
        sequential = search_db_sequential(query, db, config)
        assert result.scores() == sequential.scores()
        assert result.prefilter == "length,composition,kmer"
        assert result.sequences_pruned > 0
        assert result.cells_skipped > 0
        assert 0 < result.pruned_fraction < 1

    def test_prefilter_off_reports_off(self):
        rng = np.random.default_rng(3)
        query = random_dna(50, rng)
        db = [("a", random_dna(40, rng)), ("b", random_dna(60, rng))]
        result = search_db(query, db, SearchConfig(top_k=2, prefilter="off"))
        assert result.prefilter == "off"
        assert result.sequences_pruned == 0
        assert result.cells_skipped == 0


class TestPoolRejectsStagedGraphs:
    def test_run_search_plan_refuses_prefilter_graphs(self):
        from repro.parallel.pool import AlignmentWorkerPool

        rng = np.random.default_rng(5)
        packed = pack_database(
            [("a", random_dna(30, rng)), ("b", random_dna(40, rng))], max_lanes=4
        )
        graph = plan_search_buckets(
            packed, 20, top_k=2, prefilter=("length", "composition")
        )
        with AlignmentWorkerPool(n_workers=1) as pool:
            with pytest.raises(ValueError, match="pooled_pruned_search"):
                pool.run_search_plan(
                    graph, random_dna(20, rng), search_blob(packed)
                )


class TestPackSubset:
    def test_round_trip_preserves_indices_and_codes(self):
        rng = np.random.default_rng(17)
        records = [(f"s{i}", random_dna(int(rng.integers(5, 90)), rng)) for i in range(30)]
        packed = pack_database(records, max_lanes=8)
        wanted = np.array([3, 7, 11, 25, 28], dtype=np.int64)
        subset = pack_subset(packed, wanted, max_lanes=4, max_waste=0.5)
        seen = {}
        for bucket in subset.buckets:
            for lane in range(bucket.lanes):
                idx = int(bucket.indices[lane])
                width = int(bucket.lengths[lane])
                seen[idx] = bucket.codes[lane, :width]
        assert sorted(seen) == list(wanted)
        for idx in wanted:
            np.testing.assert_array_equal(seen[int(idx)], records[int(idx)][1])
        # Names/lengths stay the full original arrays, so original indices
        # keep resolving.
        assert subset.names == packed.names
        assert subset.lengths is packed.lengths

    def test_missing_index_raises(self):
        rng = np.random.default_rng(19)
        packed = pack_database([("a", random_dna(10, rng))], max_lanes=4)
        with pytest.raises(ValueError, match="not in the database"):
            pack_subset(packed, np.array([5], dtype=np.int64), 4, 0.5)

    def test_empty_subset(self):
        rng = np.random.default_rng(23)
        packed = pack_database([("a", random_dna(10, rng))], max_lanes=4)
        subset = pack_subset(packed, np.zeros(0, dtype=np.int64), 4, 0.5)
        assert subset.buckets == []

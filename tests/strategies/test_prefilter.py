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
from repro.plan import search_blob
from repro.seq import biased_dna, mutate, pack_database, random_dna
from repro.seq.db import pack_subset
from repro.strategies import (
    AUTO_MIN_SEQUENCES,
    SearchConfig,
    resolve_prefilter,
    search_db,
    search_db_sequential,
)
from repro.strategies.prefilter import default_seed_count
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
    def test_ceiling_dominates_true_score(self, tier, scoring, monkeypatch):
        """Each bound is checked three ways: per bucket on raw codes, and in
        one sweep over the whole database's indexes with the compiled k-mer
        loop on and then off (the numpy gather)."""
        from repro.core import ckernel

        rng = np.random.default_rng(sum(map(ord, tier)))
        query = random_dna(60, rng)
        records = adversarial_db(rng, query)
        packed = pack_database(records, max_lanes=8)
        ctx = QueryBoundContext(query, scoring, DEFAULT_KMER_K)
        bound = ADMISSIBLE_BOUNDS[tier]
        lanes = [
            bucket.codes[lane, : int(bucket.lengths[lane])]
            for bucket in packed.buckets
            for lane in range(bucket.lanes)
        ]
        true = [sequential_best_score(query, target, scoring) for target in lanes]
        lengths = np.concatenate([bucket.lengths for bucket in packed.buckets])
        indexes = packed.bound_index(DEFAULT_KMER_K)
        per_bucket = [bound(ctx, b.codes, b.lengths) for b in packed.buckets]
        sweeps = {"codes": None if per_bucket[0] is None else np.concatenate(per_bucket)}
        if ckernel.available():
            sweeps["compiled"] = bound(ctx, indexes, lengths)
        monkeypatch.setattr(ckernel, "_tried", True)
        monkeypatch.setattr(ckernel, "_handle", None)
        sweeps["numpy"] = bound(ctx, indexes, lengths)
        for path, ceilings in sweeps.items():
            if ceilings is None:  # tier not applicable under this scoring
                continue
            for lane, score in enumerate(true):
                assert ceilings[lane] >= score, (
                    f"{tier} ({path}) under-estimated lane {lane}: "
                    f"ceiling {ceilings[lane]} < true score {score}"
                )

    def test_combined_ceiling_is_admissible_too(self):
        rng = np.random.default_rng(7)
        scoring = Scoring(match=1, mismatch=-3, gap=-4)
        query = random_dna(80, rng)
        packed = pack_database(adversarial_db(rng, query), max_lanes=8)
        tiered = TieredFilter(query, scoring)
        for bucket in packed.buckets:
            combined, _ = tiered.ceilings(bucket.codes, bucket.lengths)
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

    @staticmethod
    def awkward_bucket(rng, query, k, width):
        """Padded, out-of-alphabet and shorter-than-k lanes, plus shared runs."""
        lanes = 9
        codes = rng.integers(0, 4, size=(lanes, width), dtype=np.uint8)
        codes[:2] = np.resize(query[: max(width, 1)], width)
        lengths = rng.integers(0, width + 1, size=lanes)
        lengths[2] = min(k - 1, width)  # shorter than one window
        lengths[3] = 0
        for lane, length in enumerate(lengths):
            codes[lane, length:] = 255  # PAD_CODE
        if width:
            codes[4, width // 2] = 4  # an ambiguity code mid-lane
        codes[5, ::3] = 7
        return codes

    @pytest.mark.parametrize("k", [2, 6, 7, 8])
    @pytest.mark.parametrize("width", [0, 1, 5, 8, 30])
    def test_matches_naive_count_at_every_k(self, k, width):
        from repro.core.bounds import build_bound_index, kmer_hits, kmer_id_dtype

        rng = np.random.default_rng(100 * k + width)
        query = random_dna(50, rng)
        ctx = QueryBoundContext(query, Scoring(match=1, mismatch=-3, gap=-4), k)
        codes = self.awkward_bucket(rng, query, k, width)
        want = self.naive_hits(query, codes, k)
        assert kmer_hits(ctx, codes).tolist() == want
        index = build_bound_index(codes, k)
        assert index.kmer_ids.dtype == kmer_id_dtype(k)
        assert index.kmer_ids.shape == (codes.shape[0], max(width - k + 1, 0))
        assert kmer_hits(ctx, index).tolist() == want
        for empty in (codes[:0], np.zeros((0, 3), np.uint8)):
            assert kmer_hits(ctx, empty).tolist() == []
            assert kmer_hits(ctx, build_bound_index(empty, k)).tolist() == []

    def test_id_dtype_fits_the_sentinel(self):
        from repro.core.bounds import MAX_KMER_K, build_bound_index, kmer_id_dtype

        assert kmer_id_dtype(6) == np.uint16 and kmer_id_dtype(7) == np.uint16
        assert kmer_id_dtype(8) == np.uint32 and kmer_id_dtype(MAX_KMER_K) == np.uint32
        for k in (7, 8):
            codes = np.array([[3] * (k + 1) + [255]], dtype=np.uint8)
            ids = build_bound_index(codes, k).kmer_ids[0]
            # The all-T window is the largest id; the padded one the sentinel.
            assert ids.tolist() == [4**k - 1, 4**k - 1, 4**k]

    @pytest.mark.parametrize("k", [0, 1, 16])
    def test_out_of_range_k_is_rejected(self, k):
        from repro.core.bounds import MAX_KMER_K

        with pytest.raises(ValueError, match=f"between 2 and {MAX_KMER_K}"):
            TieredFilter(random_dna(20, np.random.default_rng(0)), Scoring(), kmer_k=k)

    def test_index_built_for_another_k_is_refused(self):
        from repro.core.bounds import build_bound_index, kmer_hits

        ctx = QueryBoundContext(random_dna(20, np.random.default_rng(0)), Scoring(), 6)
        codes = np.zeros((2, 9), np.uint8)
        for k in (5, None):
            with pytest.raises(ValueError, match="k-mer tier needs k=6"):
                kmer_hits(ctx, build_bound_index(codes, k))


def old_composition_counts(codes):
    """Letter counts as the raw-code composition tier computed them."""
    counts = np.empty((codes.shape[0], 4), dtype=np.int64)
    for c in range(4):
        counts[:, c] = (codes == c).sum(axis=1)
    return counts


def old_kmer_hits(query, codes, k):
    """The int64 ``np.where`` window loop the raw-code k-mer tier ran."""
    table = np.zeros(4**k, dtype=bool)
    if len(query) >= k:
        qids = np.zeros(len(query) - k + 1, dtype=np.int64)
        for i in range(k):
            qids = qids * 4 + query[i : len(query) - k + 1 + i]
        table[qids] = True
    lanes, width = codes.shape
    n_windows = width - k + 1
    if n_windows <= 0:
        return np.zeros(lanes, dtype=np.int64)
    ids = np.zeros((lanes, n_windows), dtype=np.int64)
    valid = np.ones(ids.shape, dtype=bool)
    for i in range(k):
        sl = codes[:, i : i + n_windows]
        valid &= sl < 4
        ids = ids * 4 + np.where(sl < 4, sl, 0)
    return (table[ids] & valid).sum(axis=1)


class TestBoundIndexParity:
    """Ceilings read from the per-database index equal the raw-code ones."""

    @pytest.mark.parametrize("scoring", SCORINGS, ids=lambda s: repr(s)[:30])
    def test_per_tier_and_combined_ceilings_bitwise(self, scoring):
        from repro.core.bounds import kmer_hits

        rng = np.random.default_rng(31)
        query = random_dna(60, rng)
        packed = pack_database(adversarial_db(rng, query), max_lanes=8)
        tiered = TieredFilter(query, scoring)
        indexes = packed.bound_index(tiered.index_k)
        assert len(indexes) == len(packed.buckets)
        for bucket, index in zip(packed.buckets, indexes):
            np.testing.assert_array_equal(index.counts, old_composition_counts(bucket.codes))
            if tiered.index_k is not None:
                want = old_kmer_hits(query, bucket.codes, DEFAULT_KMER_K)
                np.testing.assert_array_equal(kmer_hits(tiered.ctx, index), want)
                np.testing.assert_array_equal(kmer_hits(tiered.ctx, bucket.codes), want)
            for tier, bound in ADMISSIBLE_BOUNDS.items():
                raw = bound(tiered.ctx, bucket.codes, bucket.lengths)
                got = bound(tiered.ctx, index, bucket.lengths)
                if raw is None:
                    assert got is None and tier == "kmer"
                    continue
                assert got.dtype == raw.dtype == np.int64
                np.testing.assert_array_equal(got, raw)
            raw_combined, raw_tiers = tiered.ceilings(bucket.codes, bucket.lengths)
            combined, per_tier = tiered.ceilings(index, bucket.lengths)
            assert combined.tobytes() == raw_combined.tobytes()
            assert per_tier.keys() == raw_tiers.keys()
            for tier in per_tier:
                assert per_tier[tier].tobytes() == raw_tiers[tier].tobytes()

    def test_positive_mismatch_builds_counts_only(self):
        tiered = TieredFilter(random_dna(30, np.random.default_rng(2)), SCORINGS[2])
        assert tiered.index_k is None  # no k-mer tier: no window ids
        packed = pack_database([("a", random_dna(40, np.random.default_rng(3)))])
        (index,) = packed.bound_index(None)
        assert index.kmer_ids is None and index.counts.shape == (1, 4)


class TestBoundIndexLifecycle:
    def records(self, n=40):
        rng = np.random.default_rng(41)
        query = random_dna(120, rng)
        records = [(f"h{i}", mutate(query[10:100], 0.05, rng)) for i in range(3)]
        records += [(f"bg{i}", random_dna(int(rng.integers(20, 150)), rng)) for i in range(n)]
        return query, records

    def test_built_once_per_database_and_k_and_never_published(self, monkeypatch):
        import repro.parallel.pool as pool_mod
        import repro.seq.db as db_mod
        import repro.strategies.prefilter as prefilter_mod
        from repro.parallel.pool import AlignmentWorkerPool

        builds = []
        real_build = db_mod._bucket_index
        monkeypatch.setattr(
            db_mod, "_bucket_index", lambda codes, k: builds.append(k) or real_build(codes, k)
        )
        published, blobs = [], []
        real_arena = pool_mod.SequenceArena

        def arena(query, blob):
            published.append(blob)
            return real_arena(query, blob)

        def blob_of(db):
            blob = search_blob(db)
            blobs.append((blob.size, db.padded_slots))
            return blob

        monkeypatch.setattr(pool_mod, "SequenceArena", arena)
        monkeypatch.setattr(prefilter_mod, "search_blob", blob_of)

        query, records = self.records()
        packed = pack_database(records, max_lanes=8)
        config = SearchConfig(top_k=3, prefilter="kmer")
        reference = search_db_sequential(query, packed, config)
        with AlignmentWorkerPool(n_workers=2) as pool:
            for _ in range(3):
                result = search_db(query, packed, config, pool=pool)
                assert result.scores() == reference.scores()
        assert builds == [DEFAULT_KMER_K] * len(packed.buckets)
        assert list(packed._bound_index) == [DEFAULT_KMER_K]
        # The arena carries the uint8 code blob of each shipped subset and
        # nothing else: no window ids, no counts.
        assert published and all(b.dtype == np.uint8 for b in published)
        assert sum(b.size for b in published) == sum(size for size, _ in blobs)
        assert all(size == slots for size, slots in blobs)

    def test_traced_build_span(self):
        from repro.obs import observed

        query, records = self.records()
        packed = pack_database(records, max_lanes=8)
        with observed() as (tracer, _):
            indexes = packed.bound_index(DEFAULT_KMER_K)
            packed.bound_index(DEFAULT_KMER_K)
        spans = [s for s in tracer.spans if s.name == "prefilter_index"]
        assert len(spans) == 1
        assert spans[0].args == {
            "k": DEFAULT_KMER_K,
            "buckets": len(packed.buckets),
            "bytes": sum(index.nbytes for index in indexes),
        }


    def test_traced_search_stage_spans(self):
        """A traced search names its stages before the plan: the cache probe,
        the sweep, the prune, both re-packs and both plan builds; an
        unpruned search builds one plan and re-packs nothing."""
        from repro.obs import observed

        query, records = self.records()
        packed = pack_database(records, max_lanes=8)
        stages = {"cache_probe", "prefilter_bounds", "prefilter", "repack", "plan_build"}
        runs, results = {}, {}
        for mode in ("kmer", "off"):
            with observed() as (tracer, _):
                config = SearchConfig(top_k=3, prefilter=mode, cache=True)
                results[mode] = search_db(query, packed, config)
            runs[mode] = [s.name for s in tracer.spans if s.name in stages]
        # The survivors' plan is built only when some survive the prune.
        seeds = min(default_seed_count(3), packed.n_sequences)
        survive = packed.n_sequences - seeds - results["kmer"].sequences_pruned > 0
        assert sorted(runs["kmer"]) == sorted(
            ["cache_probe", "prefilter_bounds", "prefilter", "repack", "repack"]
            + ["plan_build"] * (1 + survive)
        )
        assert runs["off"] == ["cache_probe", "plan_build"]


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


class TestSurvivors:
    """Pass 2 of the pruned search, on ceilings the sweep computed."""

    def test_strict_prune_and_cheapest_tier_attribution(self):
        tiered = TieredFilter(random_dna(30, np.random.default_rng(4)), Scoring())
        per_tier = {
            "length": np.array([9, 3, 9, 9, 2]),
            "composition": np.array([9, 9, 4, 5, 1]),
        }
        combined = np.minimum(per_tier["length"], per_tier["composition"]).astype(float)
        keep, pruned = tiered.survivors(combined, per_tier, 5.0)
        # Lane 3 ties the threshold and survives; lane 4 is counted once, at
        # the cheaper tier, although both of its ceilings prove it.
        assert keep.tolist() == [True, False, False, True, False]
        assert pruned == {"length": 2, "composition": 1}

    def test_no_threshold_prunes_nothing(self):
        tiered = TieredFilter(random_dna(30, np.random.default_rng(4)), Scoring())
        keep, pruned = tiered.survivors(
            np.zeros(3), {"length": np.zeros(3, np.int64)}, float("-inf")
        )
        assert keep.all() and pruned == {}


class TestBackendsPruneAlike:
    """Inline and pooled searches run one pruned algorithm: the same
    rankings and the same prune statistics, sharded or not."""

    @pytest.fixture(scope="class")
    def pool(self):
        from repro.parallel import AlignmentWorkerPool

        with AlignmentWorkerPool(n_workers=2) as pool:
            yield pool

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(61)
        query = random_dna(200, rng)
        records = [(f"hom{i}", mutate(query[20:180], 0.08, rng)) for i in range(6)]
        records += [
            (f"bg{i}", random_dna(int(rng.integers(30, 160)), rng))
            for i in range(AUTO_MIN_SEQUENCES)
        ]
        packed = pack_database(records, max_lanes=64)
        expected = search_db_sequential(query, packed, SearchConfig(top_k=5)).scores()
        return query, packed, expected

    @staticmethod
    def observed_search(query, packed, config, pool=None):
        """The result and its prune counters (the per-tier split included)."""
        from repro.obs import observed

        with observed() as (_, metrics):
            result = search_db(query, packed, config, pool=pool)
        counters = metrics.snapshot()["counters"]
        prune = {
            name: n
            for name, n in counters.items()
            if name.startswith("prefilter_") or name in ("sequences_pruned", "cells_skipped")
        }
        return result, prune

    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("mode", ["composition", "kmer", "auto"])
    def test_inline_and_pool_prune_identically(self, pool, workload, mode, n_shards):
        query, packed, expected = workload
        config = SearchConfig(top_k=5, max_lanes=64, prefilter=mode, n_shards=n_shards)
        inline, inline_prune = self.observed_search(query, packed, config)
        pooled, pooled_prune = self.observed_search(query, packed, config, pool)
        assert inline.scores() == pooled.scores() == expected
        assert inline.sequences_pruned > 0
        assert inline_prune["sequences_pruned"] == inline.sequences_pruned
        tiers = {n: v for n, v in inline_prune.items() if n.startswith("prefilter_")}
        assert sum(tiers.values()) == inline.sequences_pruned
        assert (inline.sequences_pruned, inline.cells_skipped) == (
            pooled.sequences_pruned,
            pooled.cells_skipped,
        )
        assert inline_prune == pooled_prune


class TestPrunedSearchConsistency:
    """Search edge cases hold on the pruned path: a database past ``auto``'s
    size gate, each case equal with ``auto`` and with ``off`` to
    :func:`search_db_sequential`, inline and on a 2-worker pool, with the
    compiled k-mer sweep on and off."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.seq import synthetic_database

        rng = np.random.default_rng(67)
        db = synthetic_database(n=AUTO_MIN_SEQUENCES + 90, min_length=8, max_length=40, rng=rng)
        packed = pack_database(db)
        query = np.concatenate([db[9].codes, random_dna(16, rng)])
        n = packed.n_sequences
        # (query, k, hits expected): an empty query and one shorter than a
        # k-mer still fill the top-k with score-0 hits; k = 0 asks for none;
        # a k past the database returns every sequence.
        cases = [
            (np.zeros(0, np.uint8), 5, 5),
            (query[:3], 5, 5),
            (query, 0, 0),
            (query, n + 4, n),
        ]
        reference = [
            search_db_sequential(q, packed, SearchConfig(top_k=k)).hits for q, k, _ in cases
        ]
        return query, packed, cases, reference

    @pytest.mark.parametrize("compiled", ["compiled", "numpy"])
    @pytest.mark.parametrize("backend", ["inline", "pool"])
    def test_edge_cases_match_sequential(self, workload, backend, compiled, monkeypatch):
        from contextlib import nullcontext

        from repro.core import ckernel
        from repro.parallel import AlignmentWorkerPool

        query, packed, cases, reference = workload
        if compiled == "numpy":
            monkeypatch.setattr(ckernel, "_tried", True)
            monkeypatch.setattr(ckernel, "_handle", None)
        tiers = ",".join(resolve_prefilter("auto", packed.n_sequences))
        with AlignmentWorkerPool(n_workers=2) if backend == "pool" else nullcontext() as pool:
            for kernel in ("classic", "striped"):
                for mode in ("auto", "off"):
                    for (q, k, n_hits), want in zip(cases, reference):
                        config = SearchConfig(top_k=k, kernel=kernel, prefilter=mode)
                        got = search_db(q, packed, config, pool=pool)
                        assert got.prefilter == (tiers if mode == "auto" else "off")
                        assert len(got.hits) == n_hits
                        assert got.hits == want
                    with pytest.raises(ValueError):
                        search_db(
                            query,
                            packed,
                            SearchConfig(top_k=-1, kernel=kernel, prefilter=mode),
                            pool=pool,
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

"""The blocked strategy and phase 2 on real worker processes (the pool)."""

import pytest

from repro.core import LocalAlignment, needleman_wunsch
from repro.core.global_align import align_region
from repro.parallel import AlignmentWorkerPool, attach_shared_array, create_shared_array
from repro.plan import InlineExecutor, blocked_spec
from repro.seq import genome_pair
from repro.strategies import (
    BlockedConfig,
    PreprocessConfig,
    ScaledWorkload,
    run_mp_pipeline,
    run_pipeline,
)
from repro.strategies.blocked import blocked_plan


def blocked(pool, gp, **params):
    spec = blocked_spec(n_procs=pool.n_workers, **params)
    return pool.run_plan(spec, gp.s, gp.t).alignments


class TestSharedArray:
    def test_create_and_attach(self):
        owner = create_shared_array((4, 5))
        try:
            owner.array[2, 3] = 42
            view = attach_shared_array(owner.name, (4, 5))
            try:
                assert view.array[2, 3] == 42
                view.array[0, 0] = 7
                assert owner.array[0, 0] == 7
            finally:
                view.close()
        finally:
            owner.close()

    def test_zero_initialised(self):
        arr = create_shared_array((10,))
        try:
            assert (arr.array == 0).all()
        finally:
            arr.close()


class TestMpBlocked:
    def test_config_validation(self, pool2):
        gp = genome_pair(100, 100, n_regions=0, rng=49)
        with pytest.raises(ValueError, match="band/block counts must be positive"):
            blocked(pool2, gp, n_bands=0, n_blocks=4)
        with pytest.raises(ValueError, match="n_workers must be positive"):
            run_mp_pipeline(gp.s, gp.t, backend="blocked", n_workers=0)

    def test_single_worker_finds_regions(self, pool1):
        gp = genome_pair(500, 500, n_regions=1, region_length=70, mutation_rate=0.0, rng=50)
        found = blocked(pool1, gp, n_bands=4, n_blocks=4)
        assert found
        planted = gp.regions[0]
        assert abs(found[0].s_end - planted.s_end) <= 20

    def test_two_workers_match_one_worker(self, pool1, pool2):
        gp = genome_pair(600, 600, n_regions=2, region_length=60, mutation_rate=0.02, rng=51)
        one = blocked(pool1, gp, n_bands=6, n_blocks=4)
        two = blocked(pool2, gp, n_bands=6, n_blocks=4)
        assert one
        assert [a.score for a in one] == [a.score for a in two]
        assert [a.region for a in one] == [a.region for a in two]

    def test_matches_simulated_backend(self, pool2):
        """The real and simulated backends agree on the alignment queue."""
        from repro.strategies import BlockedConfig, ScaledWorkload, run_blocked

        gp = genome_pair(500, 500, n_regions=1, region_length=80, mutation_rate=0.0, rng=52)
        real = blocked(pool2, gp, n_bands=8, n_blocks=4)
        simulated = run_blocked(
            ScaledWorkload(gp.s, gp.t),
            BlockedConfig(n_procs=2, n_bands=8, n_blocks=4),
        ).alignments
        assert [a.score for a in real] == [a.score for a in simulated]

    def test_no_regions_in_noise(self, pool2):
        gp = genome_pair(400, 400, n_regions=0, rng=53)
        assert blocked(pool2, gp, n_bands=4, n_blocks=2, threshold=40) == []


class TestMpPhase2:
    def test_records_match_serial_nw(self, pool2):
        gp = genome_pair(800, 800, n_regions=2, region_length=60, mutation_rate=0.05, rng=54)
        regions = [
            LocalAlignment(10, p.s_start, p.s_end, p.t_start, p.t_end)
            for p in gp.regions
        ]
        records = pool2.phase2(regions, gp.s, gp.t)
        assert len(records) == 2
        for rec in records:
            reference = needleman_wunsch(
                gp.s[rec.source.s_start : rec.source.s_end],
                gp.t[rec.source.t_start : rec.source.t_end],
            )
            assert rec.similarity == reference.score

    def test_empty(self, pool2):
        gp = genome_pair(100, 100, n_regions=0, rng=55)
        assert pool2.phase2([], gp.s, gp.t) == []

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="n_workers must be positive"):
            AlignmentWorkerPool(n_workers=0)

    def test_sorted_by_size(self, pool2):
        """Records come back in the scattered mapping's size order, each equal
        to a sequential ``align_region`` over the same sorted queue."""
        gp = genome_pair(1000, 1000, n_regions=0, rng=57)
        regions = [
            LocalAlignment(5, 0, 50, 0, 50),
            LocalAlignment(5, 100, 400, 100, 400),
            LocalAlignment(5, 500, 600, 500, 600),
        ]
        records = pool2.phase2(regions, gp.s, gp.t)
        sizes = [r.source.size for r in records]
        assert sizes == sorted(sizes, reverse=True)
        ordered = sorted(regions, key=lambda r: (-r.size, r.region))
        expected = [align_region(gp.s, gp.t, r) for r in ordered]
        assert [(r.source.region, r.similarity) for r in records] == [
            (e.source.region, e.similarity) for e in expected
        ]


class TestMpPipeline:
    def test_n_workers_defaults_to_the_pool(self, pool1):
        gp = genome_pair(300, 300, n_regions=1, region_length=60, mutation_rate=0.0, rng=58)
        result = run_mp_pipeline(gp.s, gp.t, backend="blocked", pool=pool1)
        assert result.phase1.n_procs == 1
        assert result.phase1.alignments

    def test_n_workers_must_match_the_pool(self, pool2):
        gp = genome_pair(300, 300, n_regions=0, rng=59)
        with pytest.raises(ValueError, match="plan wants 5 processors but the pool has 2 workers"):
            run_mp_pipeline(gp.s, gp.t, backend="blocked", n_workers=5, pool=pool2)
        result = run_mp_pipeline(gp.s, gp.t, backend="blocked", n_workers=2, pool=pool2)
        assert result.phase1.n_procs == 2

    def test_phase1_spec_kind_must_match_the_backend(self, pool2):
        gp = genome_pair(300, 300, n_regions=0, rng=60)
        config = BlockedConfig(n_procs=2, n_bands=8, n_blocks=8)
        with pytest.raises(ValueError, match="BlockedConfig but the strategy 'heuristic'"):
            run_mp_pipeline(gp.s, gp.t, backend="heuristic", pool=pool2, phase1_config=config)

    def test_default_specs(self, pool2):
        """The pool pipeline's blocked default is 8 bands x 8 blocks at
        threshold 35, over the pool's workers."""
        gp = genome_pair(300, 300, n_regions=0, rng=61)
        default = blocked_plan(ScaledWorkload(gp.s, gp.t), BlockedConfig(2, n_bands=8, n_blocks=8))
        assert default.spec == blocked_spec(n_procs=2, n_bands=8, n_blocks=8, threshold=35)
        result = run_mp_pipeline(gp.s, gp.t, backend="blocked", pool=pool2)
        assert result.phase1.kind == "blocked" and result.phase1.n_procs == 2
        assert (result.phase1.extras["n_bands"], result.phase1.extras["n_blocks"]) == (8, 8)

    @pytest.mark.parametrize("strategy", ["heuristic", "heuristic_block", "pre_process"])
    @pytest.mark.parametrize("path", ["sim", "pool"])
    def test_one_column_target_accepted_on_both_paths(self, pool2, path, strategy):
        """The entry check's other half: any non-empty pair runs, a ``t``
        narrower than the processor count included."""
        if path == "sim":
            result = run_pipeline("ACGTACGTAC", "A", strategy=strategy, n_procs=4)
        else:
            result = run_mp_pipeline("ACGTACGTAC", "A", backend=strategy, pool=pool2)
        assert result.phase1.alignments == [] and result.records == []

    def test_result_matrix_identical_on_every_executor(self, pool2):
        """pre_process on sim, inline and the pool: one result matrix."""
        gp = genome_pair(1200, 1200, n_regions=2, region_length=100, rng=1)
        config = PreprocessConfig(n_procs=2, band_size=50, chunk_size=50)
        matrices = [
            run_pipeline(
                gp.s, gp.t, "pre_process", 2, phase1_config=config, executor=executor
            ).phase1.extras["result_matrix"]
            for executor in (None, InlineExecutor(), pool2)
        ]
        assert matrices[0].shape == (24, 2) and matrices[0].sum() > 0
        for matrix in matrices[1:]:
            assert (matrix == matrices[0]).all()

    @pytest.mark.parametrize("empty", ["s", "t"])
    @pytest.mark.parametrize("path", ["sim", "pool"])
    def test_empty_sequence_rejected_on_both_paths(self, pool1, path, empty):
        """One entry check: the simulated and the pool pipeline refuse an
        empty sequence with the same error, before any phase runs."""
        pair = {"s": "ACGTACGTAC", "t": "ACGTTCGTAC"}
        pair[empty] = ""
        with pytest.raises(ValueError, match="sequences must be non-empty"):
            if path == "sim":
                run_pipeline(pair["s"], pair["t"])
            else:
                run_mp_pipeline(pair["s"], pair["t"], backend="blocked", pool=pool1)

import numpy as np
import pytest

from repro.core import KernelWorkspace, similarity_matrix, sw_best_endpoint
from repro.seq import genome_pair
from repro.strategies import (
    RegionSettings,
    ScaledWorkload,
    WavefrontConfig,
    run_wavefront,
    serial_wavefront_time,
)


class TestScaledWorkload:
    def test_nominal_sizes(self):
        gp = genome_pair(100, 200, n_regions=0, rng=0)
        wl = ScaledWorkload(gp.s, gp.t, scale=5)
        assert wl.nominal_rows == 500 and wl.nominal_cols == 1000
        assert wl.nominal_cells == 500_000

    def test_invalid_scale(self):
        gp = genome_pair(10, 10, n_regions=0, rng=0)
        with pytest.raises(ValueError):
            ScaledWorkload(gp.s, gp.t, scale=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScaledWorkload(np.array([], dtype=np.uint8), np.array([0], dtype=np.uint8))

    def test_scale_alignment(self):
        from repro.core import LocalAlignment

        gp = genome_pair(10, 10, n_regions=0, rng=0)
        wl = ScaledWorkload(gp.s, gp.t, scale=3)
        a = wl.scale_alignment(LocalAlignment(5, 1, 2, 3, 4))
        assert a.region == (3, 6, 9, 12)


class TestSliceKernel:
    def test_stitched_slices_equal_full_row(self):
        """Distributed row computation is exact (the strategy's core claim)."""
        gp = genome_pair(60, 60, n_regions=1, region_length=20, rng=1, min_separation=0)
        H = similarity_matrix(gp.s, gp.t, local=True)
        # recompute row by row with 3 column slices
        bounds = [(0, 20), (20, 40), (40, 60)]
        prev = [H[0][c0 : c1 + 1].copy() for c0, c1 in bounds]
        workspaces = [KernelWorkspace(gp.t[c0:c1]) for c0, c1 in bounds]
        for i in range(1, len(gp.s) + 1):
            # stitch left borders from the already-computed full matrix row
            new = []
            for k, (c0, c1) in enumerate(bounds):
                left_cur = int(H[i][c0]) if c0 > 0 else 0
                row = workspaces[k].sw_rows_slice(prev[k], gp.s[i - 1 : i], [left_cur])[0]
                new.append(row)
                assert np.array_equal(row[1:], H[i][c0 + 1 : c1 + 1])
            prev = new


class TestRunWavefront:
    def test_finds_planted_regions(self):
        gp = genome_pair(1200, 1200, n_regions=2, region_length=80, mutation_rate=0.0, rng=2)
        wl = ScaledWorkload(gp.s, gp.t)
        res = run_wavefront(wl, WavefrontConfig(n_procs=4))
        assert len(res.alignments) >= 2
        top = res.alignments[:2]
        for planted in gp.regions:
            assert any(
                abs(a.s_end - planted.s_end) <= 20 and abs(a.t_end - planted.t_end) <= 20
                for a in top
            )

    def test_region_spanning_processor_border(self):
        """A region crossing the column partition must still be found."""
        gp = genome_pair(600, 600, n_regions=0, rng=3)
        s, t = gp.s.copy(), gp.t.copy()
        # plant one region straddling the border between proc 1 and proc 2
        # (columns 300 with 2 procs)
        frag = genome_pair(100, 100, n_regions=0, rng=4).s
        s[250:350] = frag
        t[250:350] = frag
        wl = ScaledWorkload(s, t)
        res = run_wavefront(wl, WavefrontConfig(n_procs=2, regions=RegionSettings(threshold=30)))
        assert res.alignments
        best = res.alignments[0]
        assert best.score >= 60
        assert abs(best.t_end - 350) <= 20

    def test_single_proc_matches_linear_scan(self):
        gp = genome_pair(400, 400, n_regions=1, region_length=60, mutation_rate=0.0, rng=5)
        wl = ScaledWorkload(gp.s, gp.t)
        res = run_wavefront(wl, WavefrontConfig(n_procs=1))
        ep = sw_best_endpoint(gp.s, gp.t)
        assert res.alignments
        assert res.alignments[0].score == ep.score

    def test_best_score_invariant_to_proc_count(self):
        """The dominant alignment's score and rectangle do not depend on P.

        (Parallel runs may additionally report fragments of a region's decay
        tail when the tail crosses a column border -- the paper's own
        parallel heuristic also reports "very close but not the same"
        results -- but the top-scoring region must be stable.)
        """
        gp = genome_pair(800, 800, n_regions=1, region_length=80, mutation_rate=0.02, rng=6)
        wl = ScaledWorkload(gp.s, gp.t)
        tops = []
        for P in (1, 2, 4):
            res = run_wavefront(wl, WavefrontConfig(n_procs=P))
            tops.append(max(res.alignments, key=lambda a: a.score))
        assert tops[0].score == tops[1].score == tops[2].score
        assert tops[0].region == tops[1].region == tops[2].region

    def test_more_procs_faster(self):
        gp = genome_pair(1000, 1000, n_regions=0, rng=7)
        wl = ScaledWorkload(gp.s, gp.t, scale=20)
        t2 = run_wavefront(wl, WavefrontConfig(n_procs=2)).total_time
        t8 = run_wavefront(wl, WavefrontConfig(n_procs=8)).total_time
        assert t8 < t2

    def test_small_sequences_poor_speedup(self):
        """Paper: 'for small sequence sizes ... very bad speed-ups'."""
        gp = genome_pair(500, 500, n_regions=0, rng=8)
        wl = ScaledWorkload(gp.s, gp.t, scale=2)  # 1 kBP nominal
        serial = serial_wavefront_time(wl)
        t8 = run_wavefront(wl, WavefrontConfig(n_procs=8)).total_time
        assert serial / t8 < 1.5

    def test_breakdown_is_complete(self):
        gp = genome_pair(600, 600, n_regions=0, rng=9)
        wl = ScaledWorkload(gp.s, gp.t, scale=5)
        res = run_wavefront(wl, WavefrontConfig(n_procs=4))
        for node in res.stats.nodes:
            fr = node.breakdown.fractions()
            assert abs(sum(fr.values()) - 1.0) < 1e-9
            assert node.breakdown.computation > 0

    def test_phases_sum_to_total(self):
        gp = genome_pair(400, 400, n_regions=0, rng=10)
        wl = ScaledWorkload(gp.s, gp.t)
        res = run_wavefront(wl, WavefrontConfig(n_procs=2))
        assert res.phases.total == pytest.approx(res.total_time)
        assert res.phases.init > 0 and res.phases.term > 0

    def test_more_procs_than_columns_idle_the_rest(self):
        """16 processors on 10 columns: one column each for the first ten,
        an empty slice for the rest, and the ten-processor regions."""
        gp = genome_pair(10, 10, n_regions=0, rng=11)
        wl = ScaledWorkload(gp.s, gp.t)
        low = RegionSettings(threshold=1)
        many = run_wavefront(wl, WavefrontConfig(n_procs=16, regions=low))
        ten = run_wavefront(wl, WavefrontConfig(n_procs=10, regions=low))
        assert many.alignments
        assert many.alignments == ten.alignments

    def test_deterministic(self):
        gp = genome_pair(500, 500, n_regions=1, region_length=50, rng=12)
        wl = ScaledWorkload(gp.s, gp.t)
        a = run_wavefront(wl, WavefrontConfig(n_procs=4))
        b = run_wavefront(wl, WavefrontConfig(n_procs=4))
        assert a.total_time == b.total_time
        assert a.alignments == b.alignments

    def test_speedup_against(self):
        # 25 kBP nominal: comfortably past the strategy's break-even size
        gp = genome_pair(1000, 1000, n_regions=0, rng=13)
        wl = ScaledWorkload(gp.s, gp.t, scale=25)
        res = run_wavefront(wl, WavefrontConfig(n_procs=4))
        su = res.speedup_against(serial_wavefront_time(wl))
        assert su > 1.3

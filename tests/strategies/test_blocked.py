import numpy as np
import pytest

from repro.core import similarity_matrix
from repro.core.engine import compute_tile
from repro.core.kernels import SCORE_DTYPE
from repro.core.scoring import DEFAULT_SCORING
from repro.seq import genome_pair
from repro.strategies import (
    BlockedConfig,
    ScaledWorkload,
    explicit_tiling,
    run_blocked,
    serial_blocked_time,
)


class TestComputeTile:
    def test_tiles_reassemble_full_matrix(self):
        """Band x block decomposition reproduces the full DP matrix."""
        gp = genome_pair(50, 70, n_regions=0, rng=20)
        H = similarity_matrix(gp.s, gp.t, local=True)
        tiling = explicit_tiling(50, 70, 4, 5)
        rebuilt = np.zeros_like(H)
        for band, (r0, r1) in enumerate(tiling.row_bounds):
            for block, (c0, c1) in enumerate(tiling.col_bounds):
                top = rebuilt[r0][c0 : c1 + 1].copy()
                left_col = rebuilt[r0 + 1 : r1 + 1, c0].copy()
                tile = compute_tile(
                    top, left_col, gp.s[r0:r1], gp.t[c0:c1], DEFAULT_SCORING
                )
                rebuilt[r0 + 1 : r1 + 1, c0 + 1 : c1 + 1] = tile[:, 1:]
        assert np.array_equal(rebuilt, H)

    def test_empty_tile(self):
        tile = compute_tile(
            np.zeros(1, dtype=SCORE_DTYPE),
            np.zeros(0, dtype=SCORE_DTYPE),
            np.array([], dtype=np.uint8),
            np.array([], dtype=np.uint8),
            DEFAULT_SCORING,
        )
        assert tile.shape == (0, 1)


class TestBlockedConfig:
    def test_partial_explicit_rejected(self):
        with pytest.raises(ValueError):
            BlockedConfig(n_bands=10)

    def test_invalid_procs(self):
        with pytest.raises(ValueError):
            BlockedConfig(n_procs=0)


class TestRunBlocked:
    def test_finds_planted_regions(self):
        gp = genome_pair(1200, 1200, n_regions=2, region_length=80, mutation_rate=0.0, rng=21)
        wl = ScaledWorkload(gp.s, gp.t)
        res = run_blocked(wl, BlockedConfig(n_procs=4, multiplier=(2, 2)))
        strong = [a for a in res.alignments if a.score >= 50]
        assert len(strong) >= 2
        for planted in gp.regions:
            assert any(
                abs(a.s_end - planted.s_end) <= 20 and abs(a.t_end - planted.t_end) <= 20
                for a in strong
            )

    def test_region_spanning_band_boundary(self):
        gp = genome_pair(400, 400, n_regions=0, rng=22)
        s, t = gp.s.copy(), gp.t.copy()
        frag = genome_pair(80, 80, n_regions=0, rng=23).s
        s[160:240] = frag  # straddles the 200-row band line at 2x(1,1)
        t[100:180] = frag
        wl = ScaledWorkload(s, t)
        res = run_blocked(wl, BlockedConfig(n_procs=2, multiplier=(1, 1)))
        assert res.alignments
        assert res.alignments[0].score >= 45

    def test_blocking_multiplier_reduces_time(self):
        """Table 3's effect: finer blocking beats 1x1."""
        gp = genome_pair(1000, 1000, n_regions=0, rng=24)
        wl = ScaledWorkload(gp.s, gp.t, scale=20)
        t11 = run_blocked(wl, BlockedConfig(n_procs=8, multiplier=(1, 1))).total_time
        t55 = run_blocked(wl, BlockedConfig(n_procs=8, multiplier=(5, 5))).total_time
        assert t55 < t11

    def test_blocked_beats_wavefront(self):
        """Fig. 13: the blocked strategy dominates the non-blocked one."""
        from repro.strategies import WavefrontConfig, run_wavefront

        gp = genome_pair(1500, 1500, n_regions=0, rng=25)
        wl = ScaledWorkload(gp.s, gp.t, scale=10)
        blocked = run_blocked(wl, BlockedConfig(n_procs=8)).total_time
        wavefront = run_wavefront(wl, WavefrontConfig(n_procs=8)).total_time
        assert blocked < 0.6 * wavefront

    def test_good_speedup_for_large_sequences(self):
        gp = genome_pair(2000, 2000, n_regions=0, rng=26)
        wl = ScaledWorkload(gp.s, gp.t, scale=25)  # 50 kBP nominal
        res = run_blocked(wl, BlockedConfig(n_procs=8, n_bands=40, n_blocks=25))
        su = res.speedup_against(serial_blocked_time(wl))
        assert su > 6.0

    def test_explicit_tiling_reported(self):
        gp = genome_pair(200, 200, n_regions=0, rng=27)
        res = run_blocked(
            ScaledWorkload(gp.s, gp.t), BlockedConfig(n_procs=2, n_bands=10, n_blocks=5)
        )
        assert res.extras["n_bands"] == 10 and res.extras["n_blocks"] == 5

    def test_deterministic(self):
        gp = genome_pair(400, 400, n_regions=1, region_length=60, rng=28)
        wl = ScaledWorkload(gp.s, gp.t)
        a = run_blocked(wl, BlockedConfig(n_procs=4, multiplier=(2, 2)))
        b = run_blocked(wl, BlockedConfig(n_procs=4, multiplier=(2, 2)))
        assert a.total_time == b.total_time and a.alignments == b.alignments

    def test_single_proc(self):
        gp = genome_pair(300, 300, n_regions=1, region_length=50, mutation_rate=0.0, rng=29)
        res = run_blocked(ScaledWorkload(gp.s, gp.t), BlockedConfig(n_procs=1, multiplier=(2, 2)))
        assert res.alignments
        assert res.alignments[0].score >= 40

    def test_more_bands_than_needed(self):
        gp = genome_pair(40, 40, n_regions=0, rng=30)
        res = run_blocked(
            ScaledWorkload(gp.s, gp.t), BlockedConfig(n_procs=8, multiplier=(5, 5))
        )
        assert res.total_time > 0

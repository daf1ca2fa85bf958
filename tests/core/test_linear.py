import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    RegionConfig,
    StreamingRegionFinder,
    find_regions,
    iter_sw_rows,
    nw_last_row,
    similarity_matrix,
    sw_best_endpoint,
    sw_endpoints_above,
    sw_row_hits,
)
from repro.core.matrix import best_cell
from repro.seq import genome_pair

from _strategies import dna_codes, dna_text, scorings

#: Row counts around the scans' 256-row block: one short, exact, one over,
#: and two blocks plus one row.
BLOCK_EDGES = (255, 256, 257, 513)


def tall_pair(m: int, width: int = 9):
    """``m`` rows against a narrow target: ``s`` repeats ``t`` with 10%
    noise, so similar diagonals run across every block edge."""
    rng = np.random.default_rng(m)
    t = rng.integers(0, 4, size=width, dtype=np.uint8)
    s = np.resize(t, m)
    noise = rng.random(m) < 0.1
    s[noise] = rng.integers(0, 4, size=int(noise.sum()), dtype=np.uint8)
    return s, t


class TestIterSwRows:
    @given(dna_codes(1, 24), dna_codes(1, 24))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_full_matrix(self, s, t):
        H = similarity_matrix(s, t, local=True)
        for i, row in iter_sw_rows(s, t):
            assert np.array_equal(row, H[i])

    def test_yields_m_rows(self):
        rows = list(iter_sw_rows("ACGT", "AC"))
        assert [i for i, _ in rows] == [1, 2, 3, 4]

    @pytest.mark.parametrize("m", BLOCK_EDGES)
    def test_rows_match_full_matrix_across_blocks(self, m):
        s, t = tall_pair(m)
        H = similarity_matrix(s, t, local=True)
        seen = 0
        for i, row in iter_sw_rows(s, t):
            assert np.array_equal(row, H[i]), i
            seen = i
        assert seen == m

    def test_wide_targets_get_shorter_blocks(self, monkeypatch):
        """The cell cap cuts the block to fewer rows, down to one."""
        import repro.core.linear as linear

        s, t = tall_pair(9)
        H_local = similarity_matrix(s, t, local=True)
        H_global = similarity_matrix(s, t, local=False)
        for cells in (25, 1):  # 2 rows of 10 cells, then 1 row
            monkeypatch.setattr(linear, "BLOCK_CELLS", cells)
            assert [list(row) for _, row in iter_sw_rows(s, t)] == H_local[1:].tolist()
            assert np.array_equal(nw_last_row(s, t), H_global[-1])


class TestBestEndpoint:
    @given(dna_text(1, 30), dna_text(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_matrix(self, s, t):
        H = similarity_matrix(s, t, local=True)
        ep = sw_best_endpoint(s, t)
        assert ep.score == int(H.max())
        if ep.score > 0:
            assert H[ep.i, ep.j] == ep.score
            assert (ep.i, ep.j) == best_cell(H)

    def test_zero_for_dissimilar(self):
        ep = sw_best_endpoint("AAAA", "TTTT")
        assert ep.score == 0 and (ep.i, ep.j) == (0, 0)

    @pytest.mark.parametrize("m", BLOCK_EDGES)
    def test_matches_full_matrix_across_blocks(self, m):
        s, t = tall_pair(m)
        H = similarity_matrix(s, t, local=True)
        ep = sw_best_endpoint(s, t)
        assert ep.score == int(H.max())
        assert (ep.i, ep.j) == best_cell(H)

    @pytest.mark.parametrize("m", BLOCK_EDGES)
    def test_best_cell_in_the_last_block(self, m):
        """A unique summit in the final row must survive the block split."""
        t = np.resize(np.array([0, 1, 2], dtype=np.uint8), 9)
        s = np.full(m, 3, dtype=np.uint8)  # T never matches A/C/G ...
        s[-1] = 0  # ... so only the last row's matches score
        ep = sw_best_endpoint(s, t)
        assert (ep.score, ep.i, ep.j) == (1, m, 1)

    @given(dna_text(1, 24), dna_text(1, 24), scorings)
    @settings(max_examples=40, deadline=None)
    def test_custom_scoring(self, s, t, scoring):
        H = similarity_matrix(s, t, local=True, scoring=scoring)
        assert sw_best_endpoint(s, t, scoring).score == int(H.max())


class TestEndpointsAbove:
    def test_planted_regions_all_found(self):
        gp = genome_pair(1500, 1500, n_regions=2, region_length=80, mutation_rate=0.0, rng=21)
        eps = sw_endpoints_above(gp.s, gp.t, min_score=50)
        # Decay-tail summits may add extra endpoints (resolved at rebuild
        # time, see exact_alignments_above); both planted endpoints must be
        # among them.
        assert len(eps) >= 2
        planted = sorted((p.s_end, p.t_end) for p in gp.regions)
        for pi, pj in planted:
            assert any(abs(e.i - pi) <= 10 and abs(e.j - pj) <= 10 for e in eps)

    def test_scores_at_least_threshold(self):
        gp = genome_pair(1000, 1000, n_regions=1, region_length=60, mutation_rate=0.0, rng=22)
        for ep in sw_endpoints_above(gp.s, gp.t, min_score=40):
            assert ep.score >= 40

    @pytest.mark.parametrize("m", BLOCK_EDGES)
    def test_block_scan_equals_row_by_row_feed(self, m):
        """The finder fed whole blocks == the finder fed every row."""
        rng = np.random.default_rng(m)
        t = rng.integers(0, 4, size=24, dtype=np.uint8)
        s = rng.integers(0, 4, size=m, dtype=np.uint8)
        for p in (20, 90, 160, 240, 330, 420, 490):  # 240 spans row 256
            if p + len(t) <= m:
                s[p : p + len(t)] = t
        config = RegionConfig(threshold=12)
        H = similarity_matrix(s, t, local=True)
        finder = StreamingRegionFinder(config)
        for i in range(1, m + 1):
            finder.feed(i, H[i])
        want = finder.finish()
        assert len(want) >= 3
        assert find_regions(s, t, config) == want
        assert [(e.score, e.i, e.j) for e in sw_endpoints_above(s, t, 12)] == [
            (r.score, r.peak_i, r.peak_j) for r in want
        ]

    def test_rejects_nonpositive_threshold(self):
        import pytest

        with pytest.raises(ValueError):
            sw_endpoints_above("ACGT", "ACGT", min_score=0)


class TestRowHits:
    @given(dna_codes(1, 20), dna_codes(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_matches_full_matrix_counts(self, s, t):
        H = similarity_matrix(s, t, local=True)
        hits = sw_row_hits(s, t, threshold=2)
        expected = (H[1:, 1:] >= 2).sum(axis=1)
        assert np.array_equal(hits, expected)

    @pytest.mark.parametrize("m", BLOCK_EDGES)
    def test_matches_full_matrix_counts_across_blocks(self, m):
        s, t = tall_pair(m)
        H = similarity_matrix(s, t, local=True)
        expected = (H[1:, 1:] >= 3).sum(axis=1)
        assert expected.any()
        assert np.array_equal(sw_row_hits(s, t, threshold=3), expected)

    def test_zero_threshold_region(self):
        hits = sw_row_hits("AAAA", "CCCC", threshold=1)
        assert hits.sum() == 0


class TestNwLastRow:
    @given(dna_text(0, 20), dna_text(0, 20), scorings)
    @settings(max_examples=60, deadline=None)
    def test_matches_full_matrix(self, s, t, scoring):
        H = similarity_matrix(s, t, local=False, scoring=scoring)
        assert np.array_equal(nw_last_row(s, t, scoring), H[-1])

    @pytest.mark.parametrize("m", BLOCK_EDGES)
    def test_matches_full_matrix_across_blocks(self, m):
        s, t = tall_pair(m)
        H = similarity_matrix(s, t, local=False)
        assert np.array_equal(nw_last_row(s, t), H[-1])

    def test_empty_s_gives_gap_row(self):
        assert nw_last_row("", "ACG").tolist() == [0, -2, -4, -6]

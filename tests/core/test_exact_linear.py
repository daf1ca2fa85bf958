import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    DEFAULT_SCORING,
    Scoring,
    band_limit,
    exact_alignments_above,
    exact_best_alignment,
    predicted_necessary_fraction,
    predicted_unnecessary_cells,
    rebuild_alignment,
    reverse_scan,
    smith_waterman,
    sw_best_endpoint,
)
from repro.seq import decode, encode, genome_pair

from _strategies import dna_text

# The Section 6 worked example (Tables 5-7).
PAPER_S = "TCTCGACGGATTAGTATATATATA"
PAPER_T = "ATATGATCGGAATAGCTCT"


class TestBandLimit:
    def test_paper_scheme_k_plus_half_k(self):
        # "for the kth column, it is placed in row k + ceil(k/2)"
        assert band_limit(1) == 2
        assert band_limit(2) == 3
        assert band_limit(3) == 5
        assert band_limit(4) == 6
        assert band_limit(6) == 9

    def test_zero_column(self):
        assert band_limit(0) == 0

    def test_other_scoring(self):
        # match=1, gap=-1: border at 2k
        s = Scoring(match=1, mismatch=-1, gap=-1)
        assert band_limit(4, s) == 8


class TestPredictedArea:
    def test_fraction_tends_to_one_third(self):
        # Eq. (3): unnecessary ~ 2/3 n^2 - n, so necessary ~ 1/3 (~30%)
        frac = predicted_necessary_fraction(1000)
        assert 0.30 < frac < 0.36

    def test_small_n(self):
        assert predicted_necessary_fraction(0) == 1.0
        assert 0 <= predicted_necessary_fraction(3) <= 1.0

    def test_unnecessary_cells_monotone(self):
        values = [predicted_unnecessary_cells(n) for n in (10, 50, 100)]
        assert values[0] < values[1] < values[2]

    def test_eq2_closed_form_approximation(self):
        # paper: unnecessary ~ 2/3 n'^2 - n'
        n = 600
        approx = 2 / 3 * n * n - n
        assert abs(predicted_unnecessary_cells(n) - approx) / approx < 0.02


class TestReverseScan:
    def test_paper_example_start_positions(self):
        """Tables 5-6: score-6 alignment ends at (14, 15) of s x t with s as
        the shorter word indexing rows; the reverse scan finds its start."""
        s = encode(PAPER_T)  # shorter word indexes rows, as in the paper
        t = encode(PAPER_S)
        ep = sw_best_endpoint(s, t)
        assert ep.score == 6
        scan = reverse_scan(s[: ep.i], t[: ep.j], ep.score)
        assert scan.found
        assert scan.score >= 6

    def test_not_found_for_impossible_score(self):
        scan = reverse_scan(encode("ACGT"), encode("ACGT"), 100)
        assert not scan.found

    def test_band_prunes_cells(self):
        s = encode("ACGT" * 30)
        scan = reverse_scan(s, s, 120)
        assert scan.found
        # the banded scan computes well under the full rectangle
        assert scan.cells_computed < 0.8 * scan.cells_full

    def test_computed_fraction_approaches_theory(self):
        s = encode("ACGT" * 120)  # 480 BP identical pair
        scan = reverse_scan(s, s, 480)
        assert scan.found
        predicted = predicted_necessary_fraction(480)
        # identical sequences traverse the whole diagonal: worst case
        assert scan.computed_fraction == pytest.approx(predicted, rel=0.1)

    @pytest.mark.parametrize("m", [255, 256, 257, 513])
    def test_compiled_rows_match_numpy_rows(self, m, monkeypatch):
        """The in-place one-row batches (compiled, ``out`` aliasing ``prev``)
        give the numpy rows' scan, hit for hit, at every row count."""
        import repro.core.exact_linear as exact_linear
        from repro.core.engine import NumpyWorkspace

        rng = np.random.default_rng(m)
        s = rng.integers(0, 4, size=m, dtype=np.uint8)
        t = s.copy()
        mutated = rng.random(m) < 0.03
        t[mutated] = (t[mutated] + 1) % 4
        ep = sw_best_endpoint(s, t)
        compiled = reverse_scan(s[: ep.i], t[: ep.j], ep.score)
        self_scan = reverse_scan(s, s, m)  # the diagonal runs through every row
        monkeypatch.setattr(exact_linear, "KernelWorkspace", NumpyWorkspace)
        assert compiled.found
        assert reverse_scan(s[: ep.i], t[: ep.j], ep.score) == compiled
        assert self_scan == reverse_scan(s, s, m)
        assert (self_scan.rev_i, self_scan.rev_j, self_scan.score) == (m, m, m)


class TestExactBestAlignment:
    @given(dna_text(4, 40), dna_text(4, 40))
    @settings(max_examples=60, deadline=None)
    def test_score_matches_full_sw(self, s, t):
        full = smith_waterman(s, t)
        if full.alignment.score == 0:
            return
        exact = exact_best_alignment(s, t)
        assert exact.result.alignment.score == full.alignment.score

    def test_alignment_coordinates_match_full_sw(self):
        gp = genome_pair(600, 600, n_regions=1, region_length=60, mutation_rate=0.0, rng=51)
        full = smith_waterman(gp.s, gp.t)
        exact = exact_best_alignment(gp.s, gp.t)
        assert exact.result.alignment.score == full.alignment.score
        assert (exact.result.s_start, exact.result.t_start) == (
            full.s_start,
            full.t_start,
        )

    def test_raises_on_no_similarity(self):
        with pytest.raises(ValueError):
            exact_best_alignment("AAAA", "TTTT")

    def test_alignment_verifies(self):
        exact = exact_best_alignment(PAPER_T, PAPER_S)
        assert exact.result.alignment.verify()
        assert exact.result.alignment.score == 6


class TestRebuildAlignment:
    def test_endpoint_out_of_bounds(self):
        from repro.core import ScoreEndpoint

        with pytest.raises(ValueError):
            rebuild_alignment("ACGT", "ACGT", ScoreEndpoint(4, 10, 2))

    def test_wrong_score_raises(self):
        from repro.core import ScoreEndpoint

        with pytest.raises(ValueError, match="no alignment"):
            rebuild_alignment("ACGT", "ACGT", ScoreEndpoint(99, 4, 4))


class TestExactAlignmentsAbove:
    def test_finds_all_planted(self):
        gp = genome_pair(1500, 1500, n_regions=2, region_length=70, mutation_rate=0.0, rng=52)
        results = exact_alignments_above(gp.s, gp.t, min_score=50)
        assert len(results) == 2
        starts = sorted((r.result.s_start, r.result.t_start) for r in results)
        planted = sorted((p.s_start, p.t_start) for p in gp.regions)
        for found, truth in zip(starts, planted):
            assert abs(found[0] - truth[0]) <= 5
            assert abs(found[1] - truth[1]) <= 5

    def test_space_accounting_present(self):
        gp = genome_pair(800, 800, n_regions=1, region_length=100, mutation_rate=0.0, rng=53)
        (result,) = exact_alignments_above(gp.s, gp.t, min_score=80)
        assert result.scan.cells_computed > 0
        assert result.scan.cells_computed <= result.scan.cells_full

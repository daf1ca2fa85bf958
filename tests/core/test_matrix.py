import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_SCORING,
    MatrixTooLarge,
    best_cell,
    local_alignments_above,
    needleman_wunsch,
    similarity_matrix,
    smith_waterman,
)
from repro.core.matrix import _trace
from repro.protein import BLOSUM62_SCORING, PROTEIN_ALPHABET, protein_needleman_wunsch
from repro.protein.blosum import AMINO_ACIDS
from repro.seq import AlphabetError, decode, encode, genome_pair
from repro.seq.alphabet import DNA_ALPHABET

from _strategies import dna_codes, dna_text, scorings


class TestSimilarityMatrix:
    def test_local_first_row_and_column_zero(self):
        H = similarity_matrix("ACGT", "TGCA", local=True)
        assert (H[0] == 0).all() and (H[:, 0] == 0).all()

    def test_global_borders_gap_multiples(self):
        H = similarity_matrix("AC", "GT", local=False)
        assert H[0].tolist() == [0, -2, -4]
        assert H[:, 0].tolist() == [0, -2, -4]

    def test_identical_sequences_diagonal(self):
        H = similarity_matrix("ACGT", "ACGT", local=True)
        assert H[4, 4] == 4
        assert np.all(np.diag(H) == np.arange(5))

    def test_local_nonnegative(self):
        H = similarity_matrix("ACGTACGT", "TTGACCAG", local=True)
        assert (H >= 0).all()

    def test_size_cap(self):
        with pytest.raises(MatrixTooLarge):
            similarity_matrix(
                np.zeros(10_000, dtype=np.uint8), np.zeros(10_000, dtype=np.uint8)
            )

    @given(dna_codes(0, 24), dna_codes(0, 24))
    @settings(max_examples=60, deadline=None)
    def test_local_cell_recurrence(self, s, t):
        """Every interior cell satisfies Eq. (1) of the paper."""
        H = similarity_matrix(s, t, local=True)
        for i in range(1, len(s) + 1):
            for j in range(1, len(t) + 1):
                sub = 1 if s[i - 1] == t[j - 1] else -1
                expected = max(
                    0, H[i - 1, j - 1] + sub, H[i - 1, j] - 2, H[i, j - 1] - 2
                )
                assert H[i, j] == expected


class TestBestCell:
    def test_position(self):
        H = similarity_matrix("ACGT", "ACGT", local=True)
        assert best_cell(H) == (4, 4)

    def test_tie_prefers_first_row_major(self):
        H = np.array([[0, 5], [5, 0]])
        assert best_cell(H) == (0, 1)


class TestSmithWaterman:
    def test_perfect_match(self):
        r = smith_waterman("ACGTT", "ACGTT")
        assert r.alignment.score == 5
        assert r.alignment.aligned_s == "ACGTT"
        assert (r.s_start, r.s_end) == (0, 5)

    def test_embedded_match(self):
        r = smith_waterman("TTTTACGTACGTTTTT", "GGGGACGTACGTGGGG")
        assert r.alignment.score == 8
        assert r.alignment.aligned_s == "ACGTACGT"
        assert r.s_start == 4 and r.t_start == 4

    def test_no_similarity_scores_zero_or_one(self):
        r = smith_waterman("AAAA", "TTTT")
        assert r.alignment.score == 0

    def test_alignment_score_is_consistent(self):
        r = smith_waterman("GACGGATTAG", "GATCGGAATAG")
        assert r.alignment.verify()

    def test_coordinates_name_the_subsequences(self):
        s, t = "TTACGTGG", "CCACGTAA"
        r = smith_waterman(s, t)
        assert s[r.s_start : r.s_end] == r.alignment.aligned_s.replace("-", "")
        assert t[r.t_start : r.t_end] == r.alignment.aligned_t.replace("-", "")

    @given(dna_text(1, 32), dna_text(1, 32))
    @settings(max_examples=80, deadline=None)
    def test_score_equals_matrix_max(self, s, t):
        H = similarity_matrix(s, t, local=True)
        assert smith_waterman(s, t).alignment.score == int(H.max())

    @given(dna_text(1, 24), dna_text(1, 24), scorings)
    @settings(max_examples=60, deadline=None)
    def test_traceback_score_consistent(self, s, t, scoring):
        r = smith_waterman(s, t, scoring)
        assert r.alignment.verify(scoring)
        assert s[r.s_start : r.s_end] == r.alignment.aligned_s.replace("-", "")
        assert t[r.t_start : r.t_end] == r.alignment.aligned_t.replace("-", "")

    @given(dna_text(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_self_alignment_is_identity(self, s):
        r = smith_waterman(s, s)
        assert r.alignment.score == len(s)
        assert r.alignment.aligned_s == s

    @given(dna_text(1, 20), dna_text(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, s, t):
        assert (
            smith_waterman(s, t).alignment.score
            == smith_waterman(t, s).alignment.score
        )


class TestNeedlemanWunsch:
    def test_fig1_example(self):
        # Paper Fig. 1: global alignment of GACGGATTAG / GATCGGAATAG has
        # score 6.
        g = needleman_wunsch("GACGGATTAG", "GATCGGAATAG")
        assert g.score == 6
        assert g.verify()

    def test_identical(self):
        g = needleman_wunsch("ACGT", "ACGT")
        assert g.score == 4 and g.identity == 1.0

    def test_empty_vs_sequence(self):
        g = needleman_wunsch("", "ACG")
        assert g.score == -6
        assert g.aligned_s == "---"

    def test_both_empty(self):
        g = needleman_wunsch("", "")
        assert g.score == 0 and g.length == 0

    @given(dna_text(0, 24), dna_text(0, 24), scorings)
    @settings(max_examples=60, deadline=None)
    def test_score_verifies(self, s, t, scoring):
        g = needleman_wunsch(s, t, scoring)
        assert g.verify(scoring)
        assert g.aligned_s.replace("-", "") == s
        assert g.aligned_t.replace("-", "") == t

    @given(dna_text(0, 20), dna_text(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_global_score_lower_bounds(self, s, t):
        """NW is optimal: it at least matches the no-gap / all-gap baselines."""
        g = needleman_wunsch(s, t)
        all_gaps = -2 * (len(s) + len(t))
        assert g.score >= all_gaps
        if len(s) == len(t):
            direct = sum(1 if a == b else -1 for a, b in zip(s, t))
            assert g.score >= direct


class TestLocalAlignmentsAbove:
    def test_finds_planted_regions(self):
        gp = genome_pair(800, 800, n_regions=2, region_length=60, mutation_rate=0.0, rng=11)
        results = local_alignments_above(gp.s, gp.t, min_score=40)
        assert len(results) >= 2
        found = [(r.s_start, r.t_start) for r in results[:2]]
        planted = [(p.s_start, p.t_start) for p in gp.regions]
        for p in planted:
            assert any(abs(f[0] - p[0]) <= 5 and abs(f[1] - p[1]) <= 5 for f in found)

    def test_results_do_not_overlap(self):
        gp = genome_pair(800, 800, n_regions=2, region_length=60, mutation_rate=0.0, rng=12)
        results = local_alignments_above(gp.s, gp.t, min_score=30)
        for a in results:
            for b in results:
                if a is b:
                    continue
                la, lb = a.as_local(), b.as_local()
                assert not la.overlaps(lb)

    def test_max_alignments_respected(self):
        gp = genome_pair(1200, 1200, n_regions=3, region_length=50, mutation_rate=0.0, rng=13)
        results = local_alignments_above(gp.s, gp.t, min_score=20, max_alignments=1)
        assert len(results) == 1

    def test_empty_when_threshold_too_high(self):
        assert local_alignments_above("ACGT", "TGCA", min_score=100) == []


def _trace_per_residue(H, s, t, i, j, local, scoring, alphabet):
    """The traceback walk decoding one residue per step (the old renderer),
    kept as the oracle for the batched decode in ``repro.core.matrix``."""
    a, b = [], []
    while i > 0 or j > 0:
        if local and H[i, j] == 0:
            break
        h = int(H[i, j])
        if i > 0 and j > 0:
            if h == int(H[i - 1, j - 1]) + scoring.pair_score(int(s[i - 1]), int(t[j - 1])):
                a.append(alphabet.decode(s[i - 1 : i]))
                b.append(alphabet.decode(t[j - 1 : j]))
                i, j = i - 1, j - 1
                continue
        if i > 0 and h == int(H[i - 1, j]) + scoring.gap:
            a.append(alphabet.decode(s[i - 1 : i]))
            b.append("-")
            i -= 1
            continue
        a.append("-")
        b.append(alphabet.decode(t[j - 1 : j]))
        j -= 1
    return "".join(reversed(a)), "".join(reversed(b)), i, j


protein_text = st.text(alphabet=AMINO_ACIDS, min_size=0, max_size=40)


class TestTracebackRendering:
    """The traceback decodes each side once; the strings must not change."""

    @given(dna_text(max_size=50), dna_text(max_size=50), scorings, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_dna_matches_per_residue_decode(self, s, t, scoring, local):
        sc, tc = encode(s), encode(t)
        H = similarity_matrix(sc, tc, local=local, scoring=scoring)
        i, j = best_cell(H) if local else (len(sc), len(tc))
        got = _trace(H, sc, tc, i, j, local=local, scoring=scoring)
        want = _trace_per_residue(H, sc, tc, i, j, local, scoring, DNA_ALPHABET)
        assert (got.alignment.aligned_s, got.alignment.aligned_t) == want[:2]
        assert (got.s_start, got.t_start) == want[2:]

    @given(protein_text, protein_text)
    @settings(max_examples=100, deadline=None)
    def test_protein_needleman_wunsch_matches_per_residue_decode(self, s, t):
        got = protein_needleman_wunsch(s, t)
        sc, tc = PROTEIN_ALPHABET.encode(s), PROTEIN_ALPHABET.encode(t)
        H = similarity_matrix(
            sc, tc, local=False, scoring=BLOSUM62_SCORING, alphabet=PROTEIN_ALPHABET
        )
        want = _trace_per_residue(
            H, sc, tc, len(sc), len(tc), False, BLOSUM62_SCORING, PROTEIN_ALPHABET
        )
        assert (got.aligned_s, got.aligned_t) == want[:2]
        assert got.aligned_s.replace("-", "") == s
        assert got.aligned_t.replace("-", "") == t

    def test_gapped_dna_strings(self):
        alignment = needleman_wunsch("ACGTACGT", "ACGACGT")
        assert alignment.aligned_s.replace("-", "") == "ACGTACGT"
        assert alignment.aligned_t.replace("-", "") == "ACGACGT"
        assert "-" in alignment.aligned_t

    def test_invalid_codes_raise_alphabet_error(self):
        """Codes valid for the matrix's alphabet but not the renderer's."""
        s = PROTEIN_ALPHABET.encode("WWYY")
        H = similarity_matrix(s, s, local=False, alphabet=PROTEIN_ALPHABET)
        with pytest.raises(AlphabetError):
            _trace(H, s, s, 4, 4, local=False, scoring=DEFAULT_SCORING)

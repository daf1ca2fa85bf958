import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protein import (
    AMINO_ACIDS,
    BLOSUM62,
    BLOSUM62_SCORING,
    PROTEIN_ALPHABET,
    ProteinScoring,
    protein_best_score,
    protein_needleman_wunsch,
    protein_smith_waterman,
)
from repro.core import PAD_CODE, pack_codes, score_bounds
from repro.seq.alphabet import AlphabetError

protein_text = st.text(alphabet=AMINO_ACIDS, min_size=0, max_size=40)


class TestBlosumMatrix:
    def test_symmetric(self):
        arr = np.array(BLOSUM62)
        assert np.array_equal(arr, arr.T)

    def test_twenty_by_twenty(self):
        assert len(BLOSUM62) == 20
        assert all(len(row) == 20 for row in BLOSUM62)

    def test_known_entries(self):
        sc = BLOSUM62_SCORING
        W = AMINO_ACIDS.index("W")
        C = AMINO_ACIDS.index("C")
        A = AMINO_ACIDS.index("A")
        assert sc.pair_score(W, W) == 11  # tryptophan self-match
        assert sc.pair_score(C, C) == 9
        assert sc.pair_score(A, A) == 4
        assert sc.pair_score(W, C) == -2

    def test_diagonal_positive(self):
        arr = np.array(BLOSUM62)
        assert (arr.diagonal() > 0).all()

    def test_bounds_derived(self):
        assert BLOSUM62_SCORING.match == 11
        assert BLOSUM62_SCORING.mismatch == -4

    def test_striped_lane_bounds_cover_every_residue(self):
        """The striped lanes bound a BLOSUM62 batch by the codes it scores,
        not by the DNA codes 0..3 alone (which would give (-2, 6))."""
        rng = np.random.default_rng(3)
        codes, _ = pack_codes([rng.permutation(20).astype(np.uint8), np.arange(9, dtype=np.uint8)])
        query = rng.integers(0, 20, 60).astype(np.uint8)
        query[:20] = np.arange(20)
        present = np.unique(codes[codes != PAD_CODE])
        assert score_bounds(BLOSUM62_SCORING, np.unique(query), present) == (-4, 11)
        assert score_bounds(BLOSUM62_SCORING) == (-2, 6)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            ProteinScoring(gap=-4, matrix=((1, 2, 3), (4, 5, 6)))


class TestProteinAlphabet:
    def test_roundtrip(self):
        text = "MKVLAW"
        assert PROTEIN_ALPHABET.decode(PROTEIN_ALPHABET.encode(text)) == text

    def test_twenty_letters(self):
        assert PROTEIN_ALPHABET.size == 20

    def test_invalid_residue(self):
        with pytest.raises(AlphabetError):
            PROTEIN_ALPHABET.encode("MKXB")

    @given(protein_text)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, text):
        assert PROTEIN_ALPHABET.decode(PROTEIN_ALPHABET.encode(text)) == text


class TestProteinAlignment:
    def test_self_alignment(self):
        seq = "MKVLAWGRRNDE"
        r = protein_smith_waterman(seq, seq)
        assert r.alignment.aligned_s == seq
        expected = sum(
            BLOSUM62_SCORING.pair_score(
                AMINO_ACIDS.index(c), AMINO_ACIDS.index(c)
            )
            for c in seq
        )
        assert r.alignment.score == expected

    def test_conservative_substitution_outscores_radical(self):
        # I<->L (+2) vs I<->P (-3): the conservative variant aligns better
        base = "AAAIAAA" * 3
        conservative = base.replace("I", "L")
        radical = base.replace("I", "P")
        s_cons = protein_smith_waterman(base, conservative).alignment.score
        s_rad = protein_smith_waterman(base, radical).alignment.score
        assert s_cons > s_rad

    def test_global_alignment_verifies(self):
        g = protein_needleman_wunsch("MKVLAW", "MKVAW")
        assert g.aligned_s.replace("-", "") == "MKVLAW"
        assert g.aligned_t.replace("-", "") == "MKVAW"
        # score re-checks against BLOSUM column scoring
        total = sum(
            BLOSUM62_SCORING.column_score(a, b)
            for a, b in zip(g.aligned_s, g.aligned_t)
        )
        assert total == g.score

    @given(protein_text.filter(bool), protein_text.filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_linear_space_matches_full_matrix(self, s, t):
        from repro.core import similarity_matrix

        H = similarity_matrix(
            s, t, local=True, scoring=BLOSUM62_SCORING, alphabet=PROTEIN_ALPHABET
        )
        assert protein_best_score(s, t) == int(H.max())

    @pytest.mark.parametrize("m", [255, 256, 257, 513])
    def test_linear_space_matches_full_matrix_across_blocks(self, m):
        """Row counts around the scan's 256-row block, narrow target."""
        from repro.core import similarity_matrix

        rng = np.random.default_rng(m)
        s = rng.integers(0, 20, size=m, dtype=np.uint8)
        t = rng.integers(0, 20, size=9, dtype=np.uint8)
        s[-9:] = t  # the best cell sits in the last block
        H = similarity_matrix(
            s, t, local=True, scoring=BLOSUM62_SCORING, alphabet=PROTEIN_ALPHABET
        )
        assert int(H[-1].max()) == int(H.max())
        assert protein_best_score(s, t) == int(H.max())

    @given(protein_text.filter(bool))
    @settings(max_examples=30, deadline=None)
    def test_self_score_is_diagonal_sum(self, s):
        expected = sum(
            BLOSUM62_SCORING.pair_score(AMINO_ACIDS.index(c), AMINO_ACIDS.index(c))
            for c in s
        )
        assert protein_best_score(s, s) == expected

    def test_homologous_fragments_found(self):
        # a shared motif inside unrelated flanks
        motif = "WCHKFMYRQDENW"
        a = "GGGGGGGGGG" + motif + "AAAAAAAAAA"
        b = "PPPPPPPPPP" + motif + "SSSSSSSSSS"
        r = protein_smith_waterman(a, b)
        assert motif in r.alignment.aligned_s
        assert r.s_start >= 9 and r.t_start >= 9


class TestProteinAffine:
    def test_affine_self_alignment(self):
        from repro.protein import protein_affine_smith_waterman

        seq = "MKVLAWGRRNDEYHQF"
        r = protein_affine_smith_waterman(seq, seq)
        assert r.alignment.aligned_s == seq
        assert r.alignment.identity == 1.0

    def test_affine_keeps_gap_contiguous(self):
        from repro.protein import protein_affine_smith_waterman

        a = "MKVLAWGRRNDEYHQFMCSTPIKL"
        b = a[:12] + a[15:]  # 3-residue deletion
        r = protein_affine_smith_waterman(a, b)
        assert "---" in r.alignment.aligned_t
        # exactly one gap run
        import re

        assert len(re.findall(r"-+", r.alignment.aligned_t)) == 1

    def test_affine_score_verifies(self):
        from repro.protein import BLOSUM62_AFFINE, protein_affine_smith_waterman

        a = "MKVLAWGRRNDEYHQFMCSTPIKL"
        b = "MKVLSWGRKNDAYHQWMCSTPIKL"
        r = protein_affine_smith_waterman(a, b)
        assert BLOSUM62_AFFINE.alignment_score(
            r.alignment.aligned_s, r.alignment.aligned_t
        ) == r.alignment.score

    def test_affine_matches_naive_gotoh_on_protein(self):
        import numpy as np

        from repro.core.affine import affine_matrices, gotoh_naive
        from repro.protein import BLOSUM62_AFFINE, PROTEIN_ALPHABET

        a = PROTEIN_ALPHABET.encode("MKVLAWGRRNDEYH")
        b = PROTEIN_ALPHABET.encode("MKVAWGRKNDEYHH")
        H, _, _ = affine_matrices(a, b, BLOSUM62_AFFINE, local=True,
                                  alphabet=PROTEIN_ALPHABET)
        assert int(H.max()) == gotoh_naive(a, b, BLOSUM62_AFFINE, local=True)

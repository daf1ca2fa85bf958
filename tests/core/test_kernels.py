import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KernelWorkspace, Scoring, count_hits, initial_row
from repro.core.engine import NumpyWorkspace
from repro.core.kernels import (
    SCORE_DTYPE,
    nw_row_naive,
    row_maximum,
    sw_row_naive,
)
from repro.core.scoring import DEFAULT_SCORING
from repro.seq import encode

from _strategies import dna_codes, scorings


def _one_row(advance, t, scoring):
    """One row as a one-row batch through fresh lazy workspaces (no eager
    profile): the compiled rows and the numpy rows must agree on it."""
    rows = [
        advance(cls(t, scoring, eager_codes=()))[0]
        for cls in (KernelWorkspace, NumpyWorkspace)
    ]
    assert np.array_equal(rows[0], rows[1])
    return rows[0]


def sw_row(prev, s_char, t, scoring=DEFAULT_SCORING):
    return _one_row(lambda ws: ws.sw_rows(prev, [s_char]), t, scoring)


def nw_row(prev, s_char, t, boundary, scoring=DEFAULT_SCORING):
    return _one_row(lambda ws: ws.nw_rows(prev, [s_char], [boundary]), t, scoring)


class TestInitialRow:
    def test_local_zeros(self):
        row = initial_row(5, local=True)
        assert row.tolist() == [0, 0, 0, 0, 0, 0]

    def test_global_gap_multiples(self):
        row = initial_row(4, local=False)
        assert row.tolist() == [0, -2, -4, -6, -8]

    def test_dtype(self):
        assert initial_row(3, local=True).dtype == SCORE_DTYPE


class TestSwRow:
    def test_single_match(self):
        t = encode("A")
        prev = initial_row(1, local=True)
        row = sw_row(prev, 0, t)  # 'A' vs "A"
        assert row.tolist() == [0, 1]

    def test_single_mismatch_floors_at_zero(self):
        t = encode("C")
        prev = initial_row(1, local=True)
        row = sw_row(prev, 0, t)
        assert row.tolist() == [0, 0]

    def test_horizontal_chain_resolved(self):
        # After a strong diagonal score, horizontal gaps must decay by |gap|
        t = encode("AAAA")
        prev = np.array([0, 10, 0, 0, 0], dtype=SCORE_DTYPE)
        row = sw_row(prev, 3, t)  # 'T' mismatches everywhere
        # cell 2 takes the diagonal (10 - 1 = 9); cells 3, 4 chain
        # horizontally from it, decaying by |gap| = 2 per step
        assert row[2] == 9
        assert row[3] == 7
        assert row[4] == 5

    @given(dna_codes(1, 40), st.integers(0, 3), scorings)
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_from_zero_row(self, t, s_char, scoring):
        prev = initial_row(len(t), local=True, scoring=scoring)
        fast = sw_row(prev, s_char, t, scoring)
        slow = sw_row_naive(prev, s_char, t, scoring)
        assert np.array_equal(fast, slow)

    @given(
        dna_codes(1, 30),
        st.integers(0, 3),
        st.lists(st.integers(0, 25), min_size=1, max_size=31),
        scorings,
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_from_arbitrary_row(self, t, s_char, prev_vals, scoring):
        prev = np.zeros(len(t) + 1, dtype=SCORE_DTYPE)
        n = min(len(prev_vals), len(prev))
        prev[:n] = prev_vals[:n]
        fast = sw_row(prev, s_char, t, scoring)
        slow = sw_row_naive(prev, s_char, t, scoring)
        assert np.array_equal(fast, slow)

    def test_output_nonnegative(self):
        t = encode("ACGTACGT")
        prev = initial_row(len(t), local=True)
        for ch in range(4):
            assert (sw_row(prev, ch, t) >= 0).all()


class TestNwRow:
    def test_first_row_step(self):
        t = encode("GA")
        prev = initial_row(2, local=False)
        row = nw_row(prev, 2, t, -2)  # 'G' vs "GA"
        assert row.tolist() == [-2, 1, -1]

    @given(
        dna_codes(1, 30),
        st.integers(0, 3),
        st.integers(1, 10),
        scorings,
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive(self, t, s_char, i, scoring):
        prev = initial_row(len(t), local=False, scoring=scoring)
        boundary = i * scoring.gap
        fast = nw_row(prev, s_char, t, boundary, scoring)
        slow = nw_row_naive(prev, s_char, t, boundary, scoring)
        assert np.array_equal(fast, slow)

    def test_boundary_respected(self):
        t = encode("ACGT")
        prev = initial_row(4, local=False)
        row = nw_row(prev, 0, t, -2)
        assert row[0] == -2


class TestCountHits:
    def test_excludes_boundary(self):
        row = np.array([100, 1, 5, 10], dtype=SCORE_DTYPE)
        assert count_hits(row, 5) == 2

    def test_empty_data(self):
        assert count_hits(np.array([0], dtype=SCORE_DTYPE), 1) == 0

    def test_threshold_inclusive(self):
        row = np.array([0, 7], dtype=SCORE_DTYPE)
        assert count_hits(row, 7) == 1
        assert count_hits(row, 8) == 0


class TestRowMaximum:
    def test_basic(self):
        row = np.array([0, 3, 9, 9], dtype=SCORE_DTYPE)
        assert row_maximum(row) == (9, 2)  # leftmost tie

    def test_boundary_excluded(self):
        row = np.array([50, 1, 2], dtype=SCORE_DTYPE)
        assert row_maximum(row) == (2, 2)

    def test_no_data_raises(self):
        with pytest.raises(ValueError):
            row_maximum(np.array([0], dtype=SCORE_DTYPE))


class TestKernelsWithMatrixScoring:
    def test_sw_row_matches_naive_under_substitution_matrix(self):
        from repro.core import TRANSITION_TRANSVERSION

        t = encode("ACGTACGTACGT")
        prev = initial_row(len(t), local=True, scoring=TRANSITION_TRANSVERSION)
        for ch in range(4):
            fast = sw_row(prev, ch, t, TRANSITION_TRANSVERSION)
            slow = sw_row_naive(prev, ch, t, TRANSITION_TRANSVERSION)
            assert np.array_equal(fast, slow)
            prev = fast

    def test_sw_row_matches_naive_under_blosum(self):
        from repro.protein import BLOSUM62_SCORING, PROTEIN_ALPHABET

        t = PROTEIN_ALPHABET.encode("MKVLAWGRRNDE")
        prev = initial_row(len(t), local=True, scoring=BLOSUM62_SCORING)
        for ch in (0, 5, 17):
            fast = sw_row(prev, ch, t, BLOSUM62_SCORING)
            slow = sw_row_naive(prev, ch, t, BLOSUM62_SCORING)
            assert np.array_equal(fast, slow)
            prev = fast

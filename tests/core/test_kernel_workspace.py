"""Differential tests: KernelWorkspace vs the naive per-cell kernels.

The workspace reuses scratch buffers, caches query profiles and (when the
scores allow) resolves the horizontal chain in int32 in-place -- every one of
those optimisations must be invisible.  These properties pin the batched
rows, one-row batches through lazy workspaces and the slice-stitching
contract cell-for-cell to ``sw_row_naive`` / ``nw_row_naive`` over random
sequences and scorings.  Row-at-a-time checks run both the compiled rows
(:class:`KernelWorkspace`) and the numpy rows (:class:`NumpyWorkspace`).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KernelWorkspace, Scoring, initial_row
from repro.core.engine import NumpyWorkspace
from repro.core.kernels import SCORE_DTYPE, nw_row_naive, sw_row_naive

from _strategies import dna_codes, scorings


def _naive_sw_scan(s, t, scoring):
    """Reference SW matrix rows, one list entry per query row."""
    prev = initial_row(len(t), local=True, scoring=scoring)
    rows = []
    for ch in s:
        prev = sw_row_naive(prev, int(ch), t, scoring)
        rows.append(prev)
    return rows


#: The compiled rows and the numpy rows behind the same batch API.
WORKSPACES = (KernelWorkspace, NumpyWorkspace)


class TestWorkspaceSingleRows:
    """Rows advanced one batch of one at a time, as the Section 6 reverse
    scan advances them."""

    @given(dna_codes(1, 40), dna_codes(1, 12), scorings)
    @settings(max_examples=100, deadline=None)
    def test_sw_row_matches_naive_over_scan(self, t, s, scoring):
        for cls in WORKSPACES:
            ws = cls(t, scoring)
            prev = initial_row(len(t), local=True, scoring=scoring)
            prev_naive = prev.copy()
            for ch in s:
                prev = ws.sw_rows(prev, [ch])[0]
                prev_naive = sw_row_naive(prev_naive, int(ch), t, scoring)
                assert np.array_equal(prev, prev_naive)
                assert prev.dtype == SCORE_DTYPE

    @given(dna_codes(1, 40), dna_codes(1, 12), scorings)
    @settings(max_examples=100, deadline=None)
    def test_nw_row_matches_naive_over_scan(self, t, s, scoring):
        for cls in WORKSPACES:
            ws = cls(t, scoring)
            prev = initial_row(len(t), local=False, scoring=scoring)
            prev_naive = prev.copy()
            for i, ch in enumerate(s, start=1):
                boundary = i * scoring.gap
                prev = ws.nw_rows(prev, [ch], [boundary])[0]
                prev_naive = nw_row_naive(prev_naive, int(ch), t, boundary, scoring)
                assert np.array_equal(prev, prev_naive)

    @given(dna_codes(1, 40), dna_codes(1, 12), scorings)
    @settings(max_examples=60, deadline=None)
    def test_in_place_out_aliasing_prev_is_exact(self, t, s, scoring):
        expected = _naive_sw_scan(s, t, scoring)
        for cls in WORKSPACES:
            ws = cls(t, scoring)
            row = initial_row(len(t), local=True, scoring=scoring)
            for ch, ref in zip(s, expected):
                returned = ws.sw_rows(row, [ch], out=row[None, :])
                assert np.shares_memory(returned, row)  # true in-place advance
                assert np.array_equal(row, ref)


class TestWorkspaceBatchedRows:
    @given(dna_codes(1, 40), dna_codes(1, 12), scorings)
    @settings(max_examples=80, deadline=None)
    def test_sw_rows_matches_naive(self, t, s, scoring):
        ws = KernelWorkspace(t, scoring)
        prev = initial_row(len(t), local=True, scoring=scoring)
        block = ws.sw_rows(prev, s)
        assert block.shape == (len(s), len(t) + 1)
        assert block.dtype == SCORE_DTYPE
        for row, ref in zip(block, _naive_sw_scan(s, t, scoring)):
            assert np.array_equal(row, ref)

    @given(dna_codes(1, 40), dna_codes(1, 12), scorings)
    @settings(max_examples=80, deadline=None)
    def test_nw_rows_matches_naive(self, t, s, scoring):
        ws = KernelWorkspace(t, scoring)
        prev = initial_row(len(t), local=False, scoring=scoring)
        boundaries = np.arange(1, len(s) + 1, dtype=np.int64) * scoring.gap
        block = ws.nw_rows(prev, s, boundaries)
        prev_naive = prev.copy()
        for r, ch in enumerate(s):
            prev_naive = nw_row_naive(
                prev_naive, int(ch), t, int(boundaries[r]), scoring
            )
            assert np.array_equal(block[r], prev_naive)

    @given(dna_codes(1, 40), dna_codes(1, 12), scorings)
    @settings(max_examples=40, deadline=None)
    def test_sw_rows_into_preallocated_matrix(self, t, s, scoring):
        ws = KernelWorkspace(t, scoring)
        H = np.zeros((len(s) + 1, len(t) + 1), dtype=SCORE_DTYPE)
        ws.sw_rows(H[0], s, out=H[1:])
        for row, ref in zip(H[1:], _naive_sw_scan(s, t, scoring)):
            assert np.array_equal(row, ref)


class TestSliceStitching:
    @given(
        dna_codes(2, 48),
        dna_codes(1, 10),
        st.integers(1, 5),
        scorings,
    )
    @settings(max_examples=80, deadline=None)
    def test_stitched_slices_equal_full_rows(self, t, s, n_slices, scoring):
        """Per-slice workspaces chained by left borders == full-width scan.

        This is the distributed contract every parallel strategy relies on:
        worker p owns columns [c0, c1), receives H[i, c0-1] from its left
        neighbour, and the concatenation of all slices must reproduce the
        full-matrix row exactly.
        """
        n_slices = min(n_slices, len(t))
        cuts = np.linspace(0, len(t), n_slices + 1).astype(int)
        workspaces = [
            KernelWorkspace(t[c0:c1], scoring)
            for c0, c1 in zip(cuts[:-1], cuts[1:])
        ]
        prevs = [
            np.zeros(c1 - c0 + 1, dtype=SCORE_DTYPE)
            for c0, c1 in zip(cuts[:-1], cuts[1:])
        ]
        full = initial_row(len(t), local=True, scoring=scoring)
        for ch in s:
            full = sw_row_naive(full, int(ch), t, scoring)
            left = 0
            stitched = [0]
            for p, ws in enumerate(workspaces):
                ws.sw_rows_slice(prevs[p], [ch], [left], out=prevs[p][None, :])
                stitched.extend(int(v) for v in prevs[p][1:])
                left = int(prevs[p][-1])
            assert stitched == full.tolist()

    @given(dna_codes(2, 30), dna_codes(1, 8), scorings)
    @settings(max_examples=40, deadline=None)
    def test_sw_rows_slice_matches_row_at_a_time(self, t, s, scoring):
        mid = len(t) // 2
        if mid == 0:
            return
        # lefts computed from a full naive scan of the left half boundary
        full_rows = _naive_sw_scan(s, t, scoring)
        lefts = [int(row[mid]) for row in full_rows]
        ws = KernelWorkspace(t[mid:], scoring)
        prev = np.zeros(len(t) - mid + 1, dtype=SCORE_DTYPE)
        block = ws.sw_rows_slice(prev, s, lefts)
        for r, row in enumerate(full_rows):
            assert block[r].tolist() == [lefts[r]] + row[mid + 1 :].tolist()


def _naive_slice_row(prev, s_char, t_slice, left, scoring):
    """Per-cell reference of ``sw_row_slice``: column 0 is the neighbour's
    current-row border ``left``, and the horizontal chain starts from it."""
    row = np.zeros_like(prev)
    row[0] = left
    for j in range(1, prev.size):
        sub = scoring.pair_score(int(s_char), int(t_slice[j - 1]))
        row[j] = max(
            0,
            int(prev[j - 1]) + sub,
            int(prev[j]) + scoring.gap,
            int(row[j - 1]) + scoring.gap,
        )
    return row


class TestShims:
    """Lazy workspaces built for a single row (no eager profile), the way
    one-off callers use them, against the naive references."""

    @given(dna_codes(1, 40), st.integers(0, 3), scorings)
    @settings(max_examples=60, deadline=None)
    def test_sw_row_shim(self, t, s_char, scoring):
        prev = initial_row(len(t), local=True, scoring=scoring)
        for cls in WORKSPACES:
            ws = cls(t, scoring, eager_codes=())
            assert np.array_equal(
                ws.sw_rows(prev, [s_char])[0], sw_row_naive(prev, s_char, t, scoring)
            )

    @given(dna_codes(1, 40), st.integers(0, 3), st.integers(1, 6), scorings)
    @settings(max_examples=60, deadline=None)
    def test_nw_row_shim(self, t, s_char, i, scoring):
        prev = initial_row(len(t), local=False, scoring=scoring)
        boundary = i * scoring.gap
        for cls in WORKSPACES:
            ws = cls(t, scoring, eager_codes=())
            assert np.array_equal(
                ws.nw_rows(prev, [s_char], [boundary])[0],
                nw_row_naive(prev, s_char, t, boundary, scoring),
            )

    @given(dna_codes(2, 40), st.integers(0, 3), st.integers(0, 20), scorings)
    @settings(max_examples=60, deadline=None)
    def test_sw_row_slice_shim_agrees_with_workspace(self, t, s_char, left, scoring):
        mid = len(t) // 2
        t_slice = t[mid:]
        prev = np.zeros(len(t_slice) + 1, dtype=SCORE_DTYPE)
        for cls in WORKSPACES:
            ws = cls(t_slice, scoring, eager_codes=())
            assert np.array_equal(
                ws.sw_rows_slice(prev, [s_char], [left])[0],
                _naive_slice_row(prev, s_char, t_slice, left, scoring),
            )


class TestWidePath:
    """Huge scores force the int64 resolution path; results must not change."""

    def test_wide_workspace_matches_narrow_semantics(self):
        big = 1 << 27
        wide_scoring = Scoring(match=big, mismatch=-1, gap=-big)
        t = np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.uint8)
        s = np.array([0, 0, 3, 2], dtype=np.uint8)
        for cls in WORKSPACES:
            ws = cls(t, wide_scoring)
            assert ws._wide  # the guard actually selected the int64 path
            prev = initial_row(len(t), local=True, scoring=wide_scoring)
            prev_naive = prev.copy()
            for ch in s:
                ws.sw_rows(prev, [ch], out=prev[None, :])
                prev_naive = sw_row_naive(prev_naive, int(ch), t, wide_scoring)
                assert np.array_equal(prev, prev_naive)

    def test_default_scoring_stays_narrow(self):
        ws = KernelWorkspace(np.zeros(4096, dtype=np.uint8))
        assert not ws._wide


class TestValidation:
    def test_wrong_prev_size_raises(self):
        bad = np.zeros(5, dtype=SCORE_DTYPE)
        for cls in WORKSPACES:
            ws = cls(np.zeros(8, dtype=np.uint8))
            try:
                ws.sw_rows(bad, [0])
            except ValueError as exc:
                assert "9" in str(exc)
            else:
                raise AssertionError("size mismatch accepted")

    def test_profile_cached_per_code(self):
        t = np.array([0, 1, 2, 3], dtype=np.uint8)
        ws = KernelWorkspace(t)
        assert ws.profile_row(0) is ws.profile_row(0)
        assert ws.profile_row(0).tolist() == [1, -1, -1, -1]

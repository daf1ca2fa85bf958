"""MultiSequenceWorkspace: bitwise parity with per-sequence scans.

The batched kernel's whole contract is that valid-lane scores are *bitwise
identical* to independent :class:`KernelWorkspace` scans -- including under
matrix scorings, padded tails, length-0 lanes, and batches wide enough to
take the per-column chain loop instead of ``maximum.accumulate``.
"""

import numpy as np
import pytest

from repro.core import (
    DEFAULT_SCORING,
    TRANSITION_TRANSVERSION,
    KernelWorkspace,
    MultiSequenceWorkspace,
    PAD_CODE,
    Scoring,
    pack_codes,
)
from repro.core.kernels import SCORE_DTYPE, initial_row
from repro.core.multi_engine import CHAIN_LOOP_MIN_LANES, NumpyMultiWorkspace
from repro.seq import random_dna


def reference_best(query, target, scoring) -> int:
    """Best local score via the pairwise engine (one target)."""
    rows = KernelWorkspace(target, scoring).sw_rows(
        initial_row(len(target), local=True), query
    )
    return int(rows.max(initial=0))


def reference_scores(query, targets, scoring) -> np.ndarray:
    return np.array(
        [reference_best(query, t, scoring) for t in targets], dtype=SCORE_DTYPE
    )


def make_batch(rng, k, lo, hi):
    return [random_dna(int(rng.integers(lo, hi + 1)), rng) for _ in range(k)]


class TestPackCodes:
    def test_pads_with_pad_code(self):
        codes, lengths = pack_codes([np.array([0, 1], np.uint8), np.array([2], np.uint8)])
        assert codes.shape == (2, 2)
        assert codes[1, 1] == PAD_CODE
        assert lengths.tolist() == [2, 1]

    def test_explicit_width(self):
        codes, _ = pack_codes([np.array([0], np.uint8)], width=5)
        assert codes.shape == (1, 5)
        assert (codes[0, 1:] == PAD_CODE).all()

    def test_rejects_too_narrow_width(self):
        with pytest.raises(ValueError):
            pack_codes([np.zeros(4, np.uint8)], width=3)

    def test_empty_batch(self):
        codes, lengths = pack_codes([])
        assert codes.shape == (0, 0)
        assert lengths.size == 0


class TestParity:
    @pytest.mark.parametrize(
        "scoring",
        [DEFAULT_SCORING, TRANSITION_TRANSVERSION, Scoring(3, -2, -4)],
        ids=["default", "matrix", "custom"],
    )
    def test_mixed_lengths_match_pairwise(self, rng, scoring):
        targets = make_batch(rng, 9, 1, 60)
        query = random_dna(40, rng)
        codes, lengths = pack_codes(targets)
        ws = MultiSequenceWorkspace(codes, lengths, scoring)
        got = ws.sw_best_scores(query)
        assert got.dtype == SCORE_DTYPE
        np.testing.assert_array_equal(got, reference_scores(query, targets, scoring))

    def test_wide_batch_takes_chain_loop(self, rng):
        """Above CHAIN_LOOP_MIN_LANES the per-column chain must stay exact.

        Only the numpy rows run the chain (the compiled lanes have none), so
        this drives the numpy reference workspace.
        """
        k = CHAIN_LOOP_MIN_LANES + 5
        targets = make_batch(rng, k, 5, 40)
        query = random_dna(25, rng)
        codes, lengths = pack_codes(targets)
        ws = NumpyMultiWorkspace(codes, lengths)
        scores = ws.sw_best_scores(query)
        assert ws._row_views is not None  # the loop variant is actually engaged
        np.testing.assert_array_equal(
            scores, reference_scores(query, targets, DEFAULT_SCORING)
        )

    def test_heavily_padded_tail(self, rng):
        """A 1 bp lane packed at width 64: padding must never score."""
        targets = [random_dna(64, rng), random_dna(1, rng), random_dna(2, rng)]
        query = random_dna(30, rng)
        codes, lengths = pack_codes(targets)
        ws = MultiSequenceWorkspace(codes, lengths)
        np.testing.assert_array_equal(
            ws.sw_best_scores(query), reference_scores(query, targets, DEFAULT_SCORING)
        )

    def test_empty_lane_scores_zero(self, rng):
        targets = [random_dna(12, rng), random_dna(0, rng)]
        codes, lengths = pack_codes(targets)
        ws = MultiSequenceWorkspace(codes, lengths)
        scores = ws.sw_best_scores(random_dna(10, rng))
        assert scores[1] == 0

    def test_empty_batch_and_empty_query(self, rng):
        codes, lengths = pack_codes([])
        ws = MultiSequenceWorkspace(codes, lengths)
        assert ws.sw_best_scores(random_dna(5, rng)).shape == (0,)
        targets = [random_dna(8, rng)]
        ws = MultiSequenceWorkspace(*pack_codes(targets))
        np.testing.assert_array_equal(ws.sw_best_scores(np.array([], np.uint8)), [0])

    def test_single_lane(self, rng):
        target = random_dna(33, rng)
        query = random_dna(50, rng)
        ws = MultiSequenceWorkspace(*pack_codes([target]))
        assert int(ws.sw_best_scores(query)[0]) == reference_best(
            query, target, DEFAULT_SCORING
        )


class TestLaneDtype:
    def test_short_targets_use_int16(self):
        ws = MultiSequenceWorkspace(*pack_codes([np.zeros(500, np.uint8)]))
        assert ws.dtype == np.int16

    def test_long_targets_use_score_dtype(self):
        ws = MultiSequenceWorkspace(*pack_codes([np.zeros(20_000, np.uint8)]))
        assert ws.dtype == SCORE_DTYPE

    def test_big_match_disables_int16(self):
        ws = MultiSequenceWorkspace(
            *pack_codes([np.zeros(500, np.uint8)]), scoring=Scoring(100, -1, -2)
        )
        assert ws.dtype == SCORE_DTYPE

    def test_int16_boundary_is_exact(self, rng):
        """Right at the widest int16-eligible geometry, scores still match."""
        target = random_dna(2000, rng)
        query = target[:600]  # long high-identity run drives scores up
        ws = MultiSequenceWorkspace(*pack_codes([target, target[::-1]]))
        assert ws.dtype == np.int16
        np.testing.assert_array_equal(
            ws.sw_best_scores(query),
            reference_scores(query, [target, target[::-1]], DEFAULT_SCORING),
        )


class TestValidation:
    def test_rejects_1d_codes(self):
        with pytest.raises(ValueError):
            MultiSequenceWorkspace(np.zeros(4, np.uint8), [4])

    def test_rejects_wrong_lengths_shape(self):
        with pytest.raises(ValueError):
            MultiSequenceWorkspace(np.zeros((2, 4), np.uint8), [4])

    def test_rejects_overlong_length(self):
        with pytest.raises(ValueError):
            MultiSequenceWorkspace(np.zeros((1, 4), np.uint8), [5])

    def test_sw_row_rejects_wrong_block_shape(self, rng):
        ws = MultiSequenceWorkspace(*pack_codes([random_dna(6, rng)]))
        with pytest.raises(ValueError):
            ws.sw_row(np.zeros((3, 1), dtype=ws.dtype), 0)

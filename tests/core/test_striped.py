"""Striped kernel: bitwise parity and overflow escalation.

The striped workspaces promise the same contract as the classic ones --
scores bitwise identical to independent pairwise numpy scans
(:class:`repro.core.engine.NumpyWorkspace`) --
while running narrow int8/int16 lanes.  These tests pin that contract on
adversarial inputs (high-scoring repeats, extreme match scores, padded
tails) and check the recovery machinery itself: the escalation ladder must
re-scan *only* flagged lanes, escalated results must equal a straight int32
run bit for bit, and the overflow counters must fire both in the module
stats and through the ``repro.obs`` metrics registry.
"""

import numpy as np
import pytest

from repro.core import (
    DEFAULT_SCORING,
    TRANSITION_TRANSVERSION,
    MultiSequenceWorkspace,
    Scoring,
    StripedMultiWorkspace,
    pack_codes,
)
from repro.core.engine import NumpyWorkspace
from repro.core.kernels import SCORE_DTYPE, initial_row
from repro.core.striped import (
    LANE_MODES,
    LaneLimits,
    overflow_stats,
    reset_overflow_stats,
    score_bounds,
)
from repro.obs import observed
from repro.seq import random_dna


@pytest.fixture(autouse=True)
def _fresh_striped_state():
    """Each test sees zeroed overflow counters."""
    reset_overflow_stats()
    yield
    reset_overflow_stats()


def reference_best(query, target, scoring) -> int:
    """Best local score from the numpy pairwise rows (no compiled code)."""
    rows = NumpyWorkspace(target, scoring).sw_rows(
        initial_row(len(target), local=True), query
    )
    return int(rows.max(initial=0))


def reference_scores(query, targets, scoring) -> np.ndarray:
    return np.array(
        [reference_best(query, t, scoring) for t in targets], dtype=SCORE_DTYPE
    )


def make_batch(rng, k, lo, hi):
    return [random_dna(int(rng.integers(lo, hi + 1)), rng) for _ in range(k)]


class TestScoreBounds:
    def test_default_scoring(self):
        assert score_bounds(DEFAULT_SCORING) == (-1, 1)

    def test_matrix_bounds_are_global_not_summary(self):
        """MatrixScoring.match/mismatch are diag-max/off-min; the probe must
        see the true global extremes of the matrix instead."""
        lo, hi = score_bounds(TRANSITION_TRANSVERSION)
        flat = [x for row in TRANSITION_TRANSVERSION.matrix for x in row]
        assert (lo, hi) == (min(flat), max(flat))


class TestMultiParity:
    @pytest.mark.parametrize(
        "scoring",
        [DEFAULT_SCORING, TRANSITION_TRANSVERSION, Scoring(3, -2, -4)],
        ids=["default", "matrix", "custom"],
    )
    @pytest.mark.parametrize("lane_mode", LANE_MODES)
    def test_mixed_lengths_match_pairwise(self, rng, scoring, lane_mode):
        targets = make_batch(rng, 9, 1, 120)
        query = random_dna(60, rng)
        ws = StripedMultiWorkspace(*pack_codes(targets), scoring, lane_mode=lane_mode)
        got = ws.sw_best_scores(query)
        assert got.dtype == SCORE_DTYPE
        np.testing.assert_array_equal(got, reference_scores(query, targets, scoring))

    def test_fuzz_many_seeds(self):
        """Parity over varied batch geometries and segment remainders."""
        for seed in range(8):
            rng = np.random.default_rng(seed)
            targets = make_batch(rng, int(rng.integers(1, 14)), 1, 90)
            query = random_dna(int(rng.integers(1, 70)), rng)
            ws = StripedMultiWorkspace(*pack_codes(targets))
            np.testing.assert_array_equal(
                ws.sw_best_scores(query),
                reference_scores(query, targets, DEFAULT_SCORING),
                err_msg=f"seed {seed}",
            )

    def test_forced_seg_one_and_seg_width(self, rng):
        """Degenerate segment geometries: one plane, and one segment."""
        targets = make_batch(rng, 4, 10, 40)
        query = random_dna(30, rng)
        want = reference_scores(query, targets, DEFAULT_SCORING)
        for seg in (1, max(len(t) for t in targets)):
            ws = StripedMultiWorkspace(*pack_codes(targets), seg=seg)
            np.testing.assert_array_equal(ws.sw_best_scores(query), want)

    def test_heavily_padded_tail(self, rng):
        targets = [random_dna(64, rng), random_dna(1, rng), random_dna(2, rng)]
        query = random_dna(30, rng)
        ws = StripedMultiWorkspace(*pack_codes(targets))
        np.testing.assert_array_equal(
            ws.sw_best_scores(query), reference_scores(query, targets, DEFAULT_SCORING)
        )

    def test_empty_lane_scores_zero(self, rng):
        targets = [random_dna(12, rng), random_dna(0, rng)]
        ws = StripedMultiWorkspace(*pack_codes(targets))
        assert ws.sw_best_scores(random_dna(10, rng))[1] == 0

    def test_empty_batch_and_empty_query(self, rng):
        ws = StripedMultiWorkspace(*pack_codes([]))
        assert ws.sw_best_scores(random_dna(5, rng)).shape == (0,)
        ws = StripedMultiWorkspace(*pack_codes([random_dna(8, rng)]))
        np.testing.assert_array_equal(ws.sw_best_scores(np.array([], np.uint8)), [0])

    def test_validation(self):
        with pytest.raises(ValueError):
            StripedMultiWorkspace(np.zeros(4, np.uint8), [4])
        with pytest.raises(ValueError):
            StripedMultiWorkspace(np.zeros((2, 4), np.uint8), [4])
        with pytest.raises(ValueError):
            StripedMultiWorkspace(np.zeros((1, 4), np.uint8), [5])
        with pytest.raises(ValueError):
            StripedMultiWorkspace(np.zeros((1, 4), np.uint8), [4], lane_mode="int64")


class TestOverflowEscalation:
    def test_int8_overflow_escalates_and_matches_int32(self, rng):
        """A long self-identical repeat blows past the int8 cap; the ladder
        result must be bitwise equal to a straight int32 run."""
        repeat = random_dna(400, rng)
        targets = [repeat, random_dna(50, rng)]
        codes, lengths = pack_codes(targets)
        auto = StripedMultiWorkspace(codes, lengths, lane_mode="auto")
        got = auto.sw_best_scores(repeat)
        stats = overflow_stats()
        assert stats["lanes"] >= 1 and stats["recomputes"] >= 1
        int32 = StripedMultiWorkspace(codes, lengths, lane_mode="int32")
        reset_overflow_stats()
        straight = int32.sw_best_scores(repeat)
        assert overflow_stats() == {"lanes": 0, "recomputes": 0}
        np.testing.assert_array_equal(got, straight)
        assert int(got[0]) == 400 * DEFAULT_SCORING.match
        np.testing.assert_array_equal(
            got, reference_scores(repeat, targets, DEFAULT_SCORING)
        )

    def test_only_flagged_lanes_recomputed(self, rng):
        """One hot lane among many cold ones: exactly one lane escalates."""
        hot = random_dna(300, rng)
        targets = [random_dna(60, rng) for _ in range(6)] + [hot]
        codes, lengths = pack_codes(targets)
        ws = StripedMultiWorkspace(codes, lengths, lane_mode="int8", seg=8)
        got = ws.sw_best_scores(hot)
        stats = overflow_stats()
        assert stats["lanes"] == 1
        assert stats["recomputes"] == 1
        np.testing.assert_array_equal(
            got, reference_scores(hot, targets, DEFAULT_SCORING)
        )

    def test_two_rung_escalation_int8_int16_int32(self, rng):
        """Extreme match scores push one lane through int8 *and* int16."""
        scoring = Scoring(300, -1, -2)
        lo, hi = score_bounds(scoring)
        # int8 cannot represent a +300 profile entry at all: the ladder must
        # skip it rather than scan with a wrapped profile.
        assert not LaneLimits(np.int8, 4, scoring.gap, lo, hi).fits
        repeat = random_dna(400, rng)
        targets = [repeat, random_dna(40, rng)]
        codes, lengths = pack_codes(targets)
        auto = StripedMultiWorkspace(codes, lengths, scoring, lane_mode="auto")
        got = auto.sw_best_scores(repeat)  # 120,000 > int16 cap: escalate
        stats = overflow_stats()
        assert stats["lanes"] >= 1
        straight = StripedMultiWorkspace(
            codes, lengths, scoring, lane_mode="int32"
        ).sw_best_scores(repeat)
        np.testing.assert_array_equal(got, straight)
        assert int(got[0]) == 400 * 300

    def test_int32_flag_rescued_by_classic(self, rng):
        """Scores near the int32 ceiling trip even the int32 cap; the flagged
        lane must be handed to the classic workspace and still come back
        exact (the true score fits SCORE_DTYPE, only the conservative
        threshold fired)."""
        scoring = Scoring(800_000_000, -1, -2)
        target = np.array([0, 0], dtype=np.uint8)
        codes, lengths = pack_codes([target])
        ws = StripedMultiWorkspace(codes, lengths, scoring, lane_mode="int32")
        got = ws.sw_best_scores(target)
        assert overflow_stats()["lanes"] == 1
        assert int(got[0]) == 1_600_000_000
        classic = MultiSequenceWorkspace(codes, lengths, scoring)
        np.testing.assert_array_equal(got, classic.sw_best_scores(target))

    def test_obs_counters_fire(self, rng):
        repeat = random_dna(300, rng)
        codes, lengths = pack_codes([repeat])
        with observed("test") as (_, metrics):
            StripedMultiWorkspace(codes, lengths, lane_mode="int8").sw_best_scores(
                repeat
            )
        assert metrics.counter("striped_overflow_lanes").value >= 1
        assert metrics.counter("striped_recomputes").value >= 1

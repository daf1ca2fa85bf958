"""Parity fuzz: the compiled kernel paths against the numpy reference.

``repro.core.ckernel`` is the one C source behind the batched row kernels,
the region finder's segment scan, the database-search lanes and the
striped search scan.  No static check reads C, so these properties are its
only guard: every compiled result must be bitwise equal to the numpy rows,
to row-by-row :meth:`StreamingRegionFinder.feed`, to the numpy lanes of
:class:`NumpyMultiWorkspace` and to the numpy striped scan of
:class:`NumpyStripedMultiWorkspace` (overflow flags included), over every
scoring regime the kernels serve -- plain and matrix DNA scoring, int8,
int16 and int32 lanes, the int64 ``_wide`` regime, lazily profiled protein
codes -- and over degenerate shapes.  A
failing loader must fall back to numpy with identical results and exactly
one warning.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import KernelWorkspace, Scoring, ckernel, striped
from repro.core.engine import NumpyWorkspace, compute_tile
from repro.core.multi_engine import (
    CHAIN_LOOP_MIN_LANES,
    MultiSequenceWorkspace,
    NumpyMultiWorkspace,
    pack_codes,
)
from repro.core.regions import RegionConfig, StreamingRegionFinder
from repro.core.scoring import SCORE_DTYPE, MatrixScoring
from repro.core.striped import LaneLimits, NumpyStripedMultiWorkspace, StripedMultiWorkspace
from repro.protein.blosum import BLOSUM62_SCORING

from _strategies import scorings

pytestmark = pytest.mark.skipif(
    not ckernel.available(), reason="compiled tile kernel not built on this host"
)


@st.composite
def matrix_scorings(draw):
    off = draw(st.lists(st.integers(-5, 1), min_size=16, max_size=16))
    diag = draw(st.lists(st.integers(2, 6), min_size=4, max_size=4))
    matrix = [[diag[a] if a == b else off[4 * a + b] for b in range(4)] for a in range(4)]
    return MatrixScoring(gap=draw(st.integers(-6, -1)), matrix=tuple(map(tuple, matrix)))


#: (scoring, alphabet size, max rows).  The wide regime's +2^28 matches
#: overflow int32 after 7 rows in *both* paths, so its tiles stay short.
REGIMES = st.one_of(
    st.tuples(scorings, st.just(4), st.just(24)),
    st.tuples(matrix_scorings(), st.just(4), st.just(24)),
    st.tuples(st.just(Scoring(2**28, -1, -2)), st.just(4), st.just(6)),
    st.tuples(st.just(BLOSUM62_SCORING), st.just(20), st.just(24)),
)


@st.composite
def tiles(draw):
    scoring, alphabet, max_h = draw(REGIMES)
    h = draw(st.integers(0, max_h))
    w = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    s = rng.integers(0, alphabet, h).astype(np.uint8)
    t = rng.integers(0, alphabet, w).astype(np.uint8)
    prev = rng.integers(0, 30, w + 1).astype(SCORE_DTYPE)
    lefts = rng.integers(-10, 30, h).astype(SCORE_DTYPE)
    return scoring, s, t, prev, lefts


def _pair(t, scoring, lazy):
    eager = () if lazy else range(4)
    return KernelWorkspace(t, scoring, eager), NumpyWorkspace(t, scoring, eager)


class TestRowsParity:
    @given(tiles(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_sw_rows(self, tile, lazy):
        scoring, s, t, prev, _ = tile
        fast, ref = _pair(t, scoring, lazy)
        assert np.array_equal(fast.sw_rows(prev, s), ref.sw_rows(prev, s))

    @given(tiles(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_nw_rows(self, tile, lazy):
        scoring, s, t, prev, lefts = tile
        fast, ref = _pair(t, scoring, lazy)
        assert np.array_equal(fast.nw_rows(prev, s, lefts), ref.nw_rows(prev, s, lefts))

    @given(tiles(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_sw_rows_slice(self, tile, lazy):
        scoring, s, t, prev, lefts = tile
        fast, ref = _pair(t, scoring, lazy)
        assert np.array_equal(
            fast.sw_rows_slice(prev, s, lefts), ref.sw_rows_slice(prev, s, lefts)
        )

    @given(tiles(), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_slice_into_strided_band_with_aliased_lefts(self, tile, c0):
        """The blocked runtime's layout: out is a view into a wider band
        buffer and lefts is that view's own column 0."""
        scoring, s, t, prev, lefts = tile
        h, w = len(s), len(t)
        band = np.full((h, c0 + w + 3), -7, dtype=SCORE_DTYPE)
        band[:, c0] = lefts
        view = band[:, c0 : c0 + w + 1]
        KernelWorkspace(t, scoring).sw_rows_slice(prev, s, band[:, c0], out=view)
        expected = NumpyWorkspace(t, scoring).sw_rows_slice(prev, s, lefts)
        assert np.array_equal(view, expected)
        assert (band[:, c0 + w + 1 :] == -7).all()  # nothing written past the tile

    @given(tiles())
    @settings(max_examples=100, deadline=None)
    def test_compute_tile(self, tile):
        scoring, s, t, prev, lefts = tile
        ref = NumpyWorkspace(t, scoring)
        assert np.array_equal(
            compute_tile(prev, lefts, s, t, scoring),
            compute_tile(prev, lefts, s, t, scoring, workspace=ref),
        )

    @pytest.mark.parametrize("h,w", [(0, 0), (0, 5), (5, 0), (1, 1)])
    def test_degenerate_tiles(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        s = rng.integers(0, 4, h).astype(np.uint8)
        t = rng.integers(0, 4, w).astype(np.uint8)
        prev = rng.integers(0, 9, w + 1).astype(SCORE_DTYPE)
        lefts = rng.integers(0, 9, h).astype(SCORE_DTYPE)
        fast, ref = KernelWorkspace(t), NumpyWorkspace(t)
        assert np.array_equal(fast.sw_rows(prev, s), ref.sw_rows(prev, s))
        assert np.array_equal(fast.nw_rows(prev, s, lefts), ref.nw_rows(prev, s, lefts))
        assert np.array_equal(
            fast.sw_rows_slice(prev, s, lefts), ref.sw_rows_slice(prev, s, lefts)
        )

    def test_in_place_single_row_batch(self):
        """``out`` may alias ``prev`` for a one-row batch (two-row scans)."""
        rng = np.random.default_rng(3)
        t = rng.integers(0, 4, 50).astype(np.uint8)
        row = rng.integers(0, 20, 51).astype(SCORE_DTYPE)
        expected = NumpyWorkspace(t).sw_rows(row.copy(), [2])[0]
        KernelWorkspace(t).sw_rows(row, [2], out=row[None, :])
        assert np.array_equal(row, expected)


@st.composite
def bands(draw):
    h = draw(st.integers(0, 30))
    w = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Mostly low scores with sparse above-threshold streaks, like a DP band.
    band = rng.integers(0, 6, (h, w + 1)).astype(SCORE_DTYPE)
    hot = rng.random((h, w + 1)) < draw(st.sampled_from([0.0, 0.05, 0.3, 0.9]))
    band[hot] += rng.integers(5, 40, int(hot.sum())).astype(SCORE_DTYPE)
    cuts = sorted(draw(st.lists(st.integers(0, h), max_size=4)))
    return band, cuts


def _regions(config, band, cuts=None, i0=1):
    finder = StreamingRegionFinder(config)
    if cuts is None:
        for r in range(len(band)):
            finder.feed(i0 + r, band[r])
    else:
        edges = [0, *cuts, len(band)]
        for lo, hi in zip(edges, edges[1:]):
            finder.feed_rows(i0 + lo, band[lo:hi])
    return finder.finish()


class TestFeedRowsParity:
    @given(
        bands(),
        st.integers(1, 45),
        st.integers(0, 20),
        st.integers(0, 20),
        st.integers(1, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_feed_rows_matches_feed(self, band_cuts, threshold, col_tol, row_tol, min_hits):
        band, cuts = band_cuts
        config = RegionConfig(threshold, col_tol, row_tol, min_hits)
        assert _regions(config, band, cuts) == _regions(config, band)

    @given(bands(), st.integers(1, 45), st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_strided_band_view(self, band_cuts, threshold, col_tol):
        """A band that is a column window of a wider buffer (row stride > w)."""
        band, _ = band_cuts
        wide = np.zeros((band.shape[0], band.shape[1] + 9), dtype=SCORE_DTYPE)
        wide[:, : band.shape[1]] = band
        config = RegionConfig(threshold, col_tol, 4)
        assert _regions(config, wide[:, : band.shape[1]], []) == _regions(config, band)

    def test_rows_must_increase(self):
        finder = StreamingRegionFinder(RegionConfig(5))
        band = np.zeros((3, 4), dtype=SCORE_DTYPE)
        finder.feed_rows(1, band)
        with pytest.raises(ValueError):
            finder.feed_rows(3, band)

    def test_open_count(self):
        finder = StreamingRegionFinder(RegionConfig(5, col_tolerance=0, row_tolerance=0))
        band = np.zeros((4, 8), dtype=SCORE_DTYPE)
        band[0, 2] = band[0, 6] = band[3, 4] = 9
        finder.feed_rows(1, band)
        assert finder.open_count() == 3
        assert len(finder.finish()) == 3


#: (scoring, alphabet size, lane dtype, max query length).  The int32 lanes
#: come from a match too large for int16; the wide regime's +2^28 matches
#: overflow int32 after 7 rows, so its queries stay short.
LANE_REGIMES = st.one_of(
    st.tuples(scorings, st.just(4), st.just(np.int16), st.just(30)),
    st.tuples(matrix_scorings(), st.just(4), st.just(np.int16), st.just(30)),
    st.tuples(
        st.builds(
            Scoring, st.integers(2**13 + 1, 2**16), st.integers(-9, 0), st.integers(-9, -1)
        ),
        st.just(4),
        st.just(np.int32),
        st.just(30),
    ),
    st.tuples(st.just(Scoring(2**28, -1, -2)), st.just(4), st.just(np.int32), st.just(6)),
    st.tuples(st.just(BLOSUM62_SCORING), st.just(20), st.just(np.int16), st.just(30)),
)


#: Lane counts of the lane fuzz: the compiled lanes walk chunks of 16 int16
#: or 8 int32 lanes, so these sit on, just below and just above both chunk
#: widths, plus the numpy rows' chain-loop threshold.
CHUNK_EDGES = (7, 8, 15, 16, 17, 31, 33)
LANE_COUNTS = (0, 1, 2, 5, 9, *CHUNK_EDGES, CHAIN_LOOP_MIN_LANES + 3)

#: One scoring per compiled lane dtype: the default (int16) and a match too
#: large for int16 (int32).
CHUNK_SCORINGS = ((Scoring(), np.int16), (Scoring(2**13 + 7, -3, -4), np.int32))


@st.composite
def lane_batches(draw):
    """A packed batch with mixed-length PAD lanes and a query for it."""
    scoring, alphabet, dtype, max_m = draw(LANE_REGIMES)
    k = draw(st.sampled_from(LANE_COUNTS))
    n = draw(st.integers(1, 40))
    m = draw(st.sampled_from([0, 1, max_m, draw(st.integers(0, max_m))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lane_lengths = rng.integers(0, n + 1, k)
    targets = [rng.integers(0, alphabet, length).astype(np.uint8) for length in lane_lengths]
    codes, lengths = pack_codes(targets, width=n)
    query = rng.integers(0, alphabet, m).astype(np.uint8)
    return scoring, dtype, codes, lengths, query


class TestLanesParity:
    @given(lane_batches(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_sw_best_scores(self, batch, lazy):
        scoring, dtype, codes, lengths, query = batch
        eager = () if lazy else range(4)
        fast = MultiSequenceWorkspace(codes, lengths, scoring, eager)
        ref = NumpyMultiWorkspace(codes, lengths, scoring, eager)
        assert fast.dtype == dtype
        assert fast.compiled != fast._wide
        got = fast.sw_best_scores(query)
        want = ref.sw_best_scores(query)
        assert got.dtype == want.dtype == SCORE_DTYPE
        assert np.array_equal(got, want)
        assert np.array_equal(fast.sw_best_scores(query), want)  # state resets

    @given(lane_batches())
    @settings(max_examples=100, deadline=None)
    def test_query_code_dtypes(self, batch):
        """Queries as int64 arrays or Python lists take the same path."""
        scoring, _, codes, lengths, query = batch
        want = NumpyMultiWorkspace(codes, lengths, scoring).sw_best_scores(query)
        fast = MultiSequenceWorkspace(codes, lengths, scoring)
        assert np.array_equal(fast.sw_best_scores(query.astype(np.int64)), want)
        assert np.array_equal(fast.sw_best_scores(query.tolist()), want)

    @pytest.mark.parametrize("scoring, dtype", CHUNK_SCORINGS)
    @pytest.mark.parametrize("k", CHUNK_EDGES)
    def test_chunk_edges(self, k, scoring, dtype):
        """Every lane count around a chunk edge, in both lane dtypes, and
        the pad lanes never show: not in ``lanes``, the result's shape, the
        counted cells, nor a second scan of the same workspace."""
        rng = np.random.default_rng(1000 * k + np.dtype(dtype).itemsize)
        targets = [rng.integers(0, 4, rng.integers(0, 50)).astype(np.uint8) for _ in range(k)]
        # The last lane is a copy of the query, so it scores well above 0.
        query = rng.integers(0, 4, 40).astype(np.uint8)
        targets[-1] = query
        codes, lengths = pack_codes(targets)
        want = NumpyMultiWorkspace(codes, lengths, scoring).sw_best_scores(query)
        fast = MultiSequenceWorkspace(codes, lengths, scoring)
        assert fast.dtype == dtype and fast.compiled
        assert fast.lanes == k
        with obs.observed() as (_, metrics):
            got = fast.sw_best_scores(query)
        assert got.shape == (k,)
        assert np.array_equal(got, want)
        assert metrics.counter("cells_computed").value == query.size * int(lengths.sum())
        assert np.array_equal(fast.sw_best_scores(query), want)

    def test_zero_lanes_and_empty_query(self):
        rng = np.random.default_rng(5)
        empty = MultiSequenceWorkspace(*pack_codes([], width=7))
        assert empty.sw_best_scores(rng.integers(0, 4, 9).astype(np.uint8)).shape == (0,)
        ws = MultiSequenceWorkspace(*pack_codes([rng.integers(0, 4, 6).astype(np.uint8)]))
        assert ws.sw_best_scores(np.array([], np.uint8)).tolist() == [0]

    @given(lane_batches())
    @settings(max_examples=100, deadline=None)
    def test_striped_int32_rescue(self, batch):
        """Every lane flagged on every rung, so the striped ladder hands the
        whole batch to its classic MultiSequenceWorkspace rescue."""
        scoring, _, codes, lengths, query = batch
        want = NumpyMultiWorkspace(codes, lengths, scoring).sw_best_scores(query)
        run_scan = striped._run_scan

        def flag_every_lane(*args):
            scores, overflow = run_scan(*args)
            return scores, np.ones_like(overflow)

        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(striped, "_run_scan", flag_every_lane)
                got = StripedMultiWorkspace(codes, lengths, scoring).sw_best_scores(query)
        finally:
            striped.reset_overflow_stats()
        assert np.array_equal(got, want)



#: (scoring, alphabet size, max query length).  The +2^28 matches flag every
#: int32 lane after a few rows, so those lanes reach the classic rescue.
STRIPE_REGIMES = st.one_of(
    st.tuples(scorings, st.just(4), st.just(40)),
    st.tuples(matrix_scorings(), st.just(4), st.just(40)),
    st.tuples(
        st.builds(
            Scoring, st.integers(2**8, 2**13), st.integers(-9, 0), st.integers(-9, -1)
        ),
        st.just(4),
        st.just(40),
    ),
    st.tuples(st.just(Scoring(2**28, -1, -2)), st.just(4), st.just(6)),
    st.tuples(st.just(BLOSUM62_SCORING), st.just(20), st.just(40)),
)


@st.composite
def stripe_batches(draw):
    """A packed batch, a query (often a copy of one lane, so scores climb
    past the segment span and the narrow rungs overflow), a starting rung
    and an optional explicit segment length."""
    scoring, alphabet, max_m = draw(STRIPE_REGIMES)
    k = draw(st.sampled_from([0, 1, 2, 5, 131]))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lane_lengths = rng.integers(0, n + 1, k)
    targets = [rng.integers(0, alphabet, length).astype(np.uint8) for length in lane_lengths]
    codes, lengths = pack_codes(targets, width=n)
    m = draw(st.sampled_from([0, 1, max_m, draw(st.integers(0, max_m))]))
    query = rng.integers(0, alphabet, m).astype(np.uint8)
    if k and m and draw(st.booleans()):
        lane = targets[int(rng.integers(k))]
        query = np.concatenate([lane, query])[:m]
    lane_mode = draw(st.sampled_from(["int8", "int16", "int32"]))
    seg = draw(st.one_of(st.none(), st.integers(1, n + 3)))
    return scoring, codes, lengths, query, lane_mode, seg


_RUN_SCAN = striped._run_scan


def _paired_scans(monkeypatch):
    """Make every rung run both scans and check them against each other.

    Returns the list of ``(limits, lanes, any flagged)`` rungs run; each
    rung's scores and overflow flags must be bitwise equal, wrapped lanes
    included.
    """
    run_scan = _RUN_SCAN
    rungs = []

    def both(codes, s_codes, lookup, limits, compiled):
        assert compiled
        got = run_scan(codes, s_codes, lookup, limits, True)
        want = run_scan(codes, s_codes, lookup, limits, False)
        assert got[0].dtype == want[0].dtype == SCORE_DTYPE
        assert np.array_equal(got[0], want[0]), limits.dtype
        assert np.array_equal(got[1], want[1]), limits.dtype
        rungs.append((limits, codes.shape[0], bool(got[1].any())))
        return got

    monkeypatch.setattr(striped, "_run_scan", both)
    return rungs


class TestStripesParity:
    @given(stripe_batches())
    @settings(max_examples=300, deadline=None)
    def test_sw_best_scores(self, batch):
        scoring, codes, lengths, query, lane_mode, seg = batch
        want = NumpyMultiWorkspace(codes, lengths, scoring).sw_best_scores(query)
        try:
            ref = NumpyStripedMultiWorkspace(codes, lengths, scoring, lane_mode, seg)
            ref_scores = ref.sw_best_scores(query)
        except ValueError:  # an explicit seg no rung fits: both paths refuse
            with pytest.raises(ValueError):
                StripedMultiWorkspace(codes, lengths, scoring, lane_mode, seg).sw_best_scores(
                    query
                )
            return
        with pytest.MonkeyPatch.context() as patch:
            _paired_scans(patch)
            fast = StripedMultiWorkspace(codes, lengths, scoring, lane_mode, seg)
            assert fast.compiled and not ref.compiled
            got = fast.sw_best_scores(query)
            # A second scan on the same workspace, from a strided view.
            again = fast.sw_best_scores(np.repeat(query, 2)[::2])
        striped.reset_overflow_stats()
        assert got.dtype == SCORE_DTYPE
        assert np.array_equal(got, want)
        assert np.array_equal(again, want)
        assert np.array_equal(ref_scores, want)

    def test_every_rung_chain_and_depth(self, monkeypatch):
        """A self-repeat through int8 -> int16 -> int32 at seg 1 and seg 3:
        every rung overflows but the last, and the scores cross the span
        (the serial chain) as well as stay below it (truncated depth)."""
        rng = np.random.default_rng(41)
        repeat = rng.integers(0, 4, 600).astype(np.uint8)
        # The gapped copy's best alignment runs a 3-cell horizontal gap, which
        # at seg 1 crosses three segments: only the serial chain carries it.
        gapped = np.concatenate([repeat[:300], [0, 1, 2], repeat[300:]]).astype(np.uint8)
        targets = [repeat, rng.integers(0, 4, 97).astype(np.uint8), repeat[:5], gapped]
        codes, lengths = pack_codes(targets)
        scoring = Scoring(60, -3, -2)  # 36,000 for the repeat: past int16
        want = NumpyMultiWorkspace(codes, lengths, scoring).sw_best_scores(repeat)
        for seg in (1, 3, None):
            rungs = _paired_scans(monkeypatch)
            got = StripedMultiWorkspace(codes, lengths, scoring, "int8", seg)
            assert np.array_equal(got.sw_best_scores(repeat), want)
            dtypes = [r[0].dtype.name for r in rungs]
            assert dtypes[0] == "int8" and dtypes[-1] == "int32", dtypes
            assert all(r[2] for r in rungs[:-1]) and not rungs[-1][2]
        striped.reset_overflow_stats()

    def test_protein_lanes_bound_by_the_lookup(self, monkeypatch):
        """BLOSUM62 protein lanes: the rung geometry comes from (-4, 11)."""
        rng = np.random.default_rng(43)
        targets = [rng.integers(0, 20, length).astype(np.uint8) for length in (50, 7, 0, 33)]
        targets[0][:20] = np.arange(20)  # every residue, W-W's 11 included
        codes, lengths = pack_codes(targets)
        query = np.concatenate([np.arange(20, dtype=np.uint8), targets[0]])
        rungs = _paired_scans(monkeypatch)
        got = StripedMultiWorkspace(codes, lengths, BLOSUM62_SCORING).sw_best_scores(query)
        want = NumpyMultiWorkspace(codes, lengths, BLOSUM62_SCORING).sw_best_scores(query)
        assert np.array_equal(got, want)
        limits = rungs[0][0]
        assert limits.dtype.name == "int8"
        want_limits = LaneLimits(np.int8, limits.seg, BLOSUM62_SCORING.gap, -4, 11)
        assert (limits.cap, limits.pad) == (want_limits.cap, want_limits.pad)
        striped.reset_overflow_stats()

    def test_failed_loader_falls_back_with_one_warning(self, monkeypatch):
        rng = np.random.default_rng(47)
        targets = [rng.integers(0, 4, length).astype(np.uint8) for length in (80, 3, 0, 41)]
        codes, lengths = pack_codes(targets)
        query = np.concatenate([targets[0], rng.integers(0, 4, 30).astype(np.uint8)])
        want = StripedMultiWorkspace(codes, lengths).sw_best_scores(query)

        def broken():
            raise RuntimeError("no compiler")

        monkeypatch.setattr(ckernel, "_load", broken)
        monkeypatch.setattr(ckernel, "_tried", False)
        monkeypatch.setattr(ckernel, "_handle", None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ws = StripedMultiWorkspace(codes, lengths)
            first = ws.sw_best_scores(query)
            second = StripedMultiWorkspace(codes, lengths).sw_best_scores(query)
        striped.reset_overflow_stats()
        assert not ws.compiled
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert np.array_equal(first, want)
        assert np.array_equal(second, want)

def _workload():
    rng = np.random.default_rng(17)
    t = rng.integers(0, 4, 70).astype(np.uint8)
    s = rng.integers(0, 4, 30).astype(np.uint8)
    prev = np.zeros(71, dtype=SCORE_DTYPE)
    ws = KernelWorkspace(t, Scoring(2, -1, -2))
    band = ws.sw_rows(prev, s)
    finder = StreamingRegionFinder(RegionConfig(4, col_tolerance=3, row_tolerance=3))
    finder.feed_rows(1, band)
    boundaries = np.arange(1, 31, dtype=SCORE_DTYPE) * -2
    targets = [rng.integers(0, 4, length).astype(np.uint8) for length in (49, 0, 7, 30, 1, 44)]
    lanes = MultiSequenceWorkspace(*pack_codes(targets)).sw_best_scores(s)
    return band, ws.nw_rows(prev, s, boundaries), finder.finish(), lanes


def test_failed_loader_falls_back_with_one_warning(monkeypatch):
    band, nw, regions, lanes = _workload()

    def broken():
        raise RuntimeError("no compiler")

    monkeypatch.setattr(ckernel, "_load", broken)
    monkeypatch.setattr(ckernel, "_tried", False)
    monkeypatch.setattr(ckernel, "_handle", None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = _workload()
        second = _workload()
    assert not ckernel.available()
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1
    assert "no compiler" in str(runtime[0].message)
    for fallback in (first, second):
        assert np.array_equal(fallback[0], band)
        assert np.array_equal(fallback[1], nw)
        assert fallback[2] == regions
        assert np.array_equal(fallback[3], lanes)


def test_references_run_no_compiled_rows(monkeypatch):
    """``search_db_sequential`` and a :class:`NumpyWorkspace` scan keep their
    scores with the compiled rows broken; a :class:`KernelWorkspace` batch
    does reach them."""
    from repro.seq import synthetic_database
    from repro.strategies import SearchConfig, search_db, search_db_sequential

    rng = np.random.default_rng(29)
    db = synthetic_database(n=12, min_length=20, max_length=90, rng=rng)
    query = np.concatenate([db[5].codes[:30], rng.integers(0, 4, 20).astype(np.uint8)])
    t = db[5].codes
    init = np.zeros(len(t) + 1, dtype=SCORE_DTYPE)
    want_hits = search_db(query, db, SearchConfig(top_k=5)).hits
    want_rows = KernelWorkspace(t).sw_rows(init, query)

    def no_c(*args):
        raise RuntimeError("compiled rows called")

    monkeypatch.setattr(ckernel, "rows", no_c)
    assert search_db_sequential(query, db, SearchConfig(top_k=5)).hits == want_hits
    assert np.array_equal(NumpyWorkspace(t).sw_rows(init, query), want_rows)
    with pytest.raises(RuntimeError, match="compiled rows called"):
        KernelWorkspace(t).sw_rows(init, query)


def test_module_name_keys_the_build_recipe(monkeypatch):
    """A flag-only or build-script-only change must not load a stale build."""
    name = ckernel._module_name()
    assert ckernel._module_name() == name == ckernel._NAME
    monkeypatch.setattr(ckernel, "_COMPILE_ARGS", ("-O2",))
    flags_changed = ckernel._module_name()
    assert flags_changed != name
    monkeypatch.setattr(ckernel, "_COMPILE_ARGS", ("-O3", "-fno-tree-vectorize"))
    assert ckernel._module_name() not in (name, flags_changed)
    monkeypatch.undo()
    monkeypatch.setattr(ckernel, "_BUILD_SCRIPT", ckernel._BUILD_SCRIPT + "\n")
    assert ckernel._module_name() != name


def test_search_db_pool_sharded_auto_matches_sequential():
    """The compiled lanes behind a real search: pool workers, two shards and
    the auto prefilter (on: the database is past its size gate)."""
    from repro.parallel import AlignmentWorkerPool
    from repro.seq import pack_database, random_dna, synthetic_database
    from repro.strategies import SearchConfig, search_db, search_db_sequential
    from repro.strategies.cache import DEFAULT_CACHE
    from repro.strategies.prefilter import AUTO_MIN_SEQUENCES

    rng = np.random.default_rng(23)
    db = synthetic_database(n=AUTO_MIN_SEQUENCES + 8, min_length=20, max_length=90, rng=rng)
    packed = pack_database(db)
    query = np.concatenate([db[3].codes[:40], random_dna(30, rng)])
    want = search_db_sequential(query, packed, SearchConfig(top_k=7)).hits
    config = SearchConfig(top_k=7, n_shards=2, prefilter="auto")
    DEFAULT_CACHE.clear()
    with AlignmentWorkerPool(n_workers=2) as pool:
        got = search_db(query, packed, config, pool=pool)
    assert got.hits == want
    assert got.prefilter != "off"  # the size gate let the tiers run

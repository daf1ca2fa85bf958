"""Parity fuzz: the compiled kernel paths against the numpy reference.

``repro.core.ckernel`` is the one C source behind the batched row kernels,
their fused phase-1 segment cut, the region merge, the database-search
lanes and the striped search scan.  No static check reads C, so these
properties are its only guard: every compiled result must be bitwise
equal to the numpy rows, to row-by-row :meth:`StreamingRegionFinder.feed`
(tile cuts joined across block borders included; the Python merge's
region order included), to the numpy lanes of
:class:`NumpyMultiWorkspace`, to the numpy striped scan of
:class:`NumpyStripedMultiWorkspace` (overflow flags included) and to the
numpy bound index of :func:`build_bound_index` and to the numpy k-mer
hit gather of :func:`repro.core.bounds.kmer_hits`, over every
scoring regime the kernels serve -- plain and matrix DNA scoring, int8,
int16 and int32 lanes, the int64 ``_wide`` regime, lazily profiled protein
codes -- and over degenerate shapes.  A
failing loader must fall back to numpy with identical results and exactly
one warning.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import PAD_CODE, KernelWorkspace, Scoring, ckernel, striped
from repro.core.bounds import DEFAULT_KMER_K, build_bound_index
from repro.core.engine import NumpyWorkspace, compute_tile, cut_segments
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


def _kernel_off(monkeypatch):
    """Switch the compiled kernels off, as a failed build leaves them (the
    failure taken as already reported, so no warning)."""
    monkeypatch.setattr(ckernel, "_tried", True)
    monkeypatch.setattr(ckernel, "_handle", None)


@pytest.fixture(params=["compiled", "numpy"])
def kernel(request, monkeypatch):
    """Run the test with the compiled kernels on, then with them off."""
    if request.param == "numpy":
        _kernel_off(monkeypatch)
    return request.param


@st.composite
def tiled_pairs(draw):
    """A small DP matrix cut into bands and blocks of 1 to 64 columns.

    Alphabets of one or two letters make long above-threshold runs that
    straddle the block borders and many equal cells (ties at the peak)."""
    h = draw(st.integers(1, 40))
    w = draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = draw(st.sampled_from([1, 2, 4]))
    s = rng.integers(0, alphabet, h).astype(np.uint8)
    t = rng.integers(0, alphabet, w).astype(np.uint8)
    widths = draw(st.lists(st.integers(1, 64), min_size=1, max_size=6))
    col_bounds, c0 = [], 0
    while c0 < w:
        c1 = min(w, c0 + widths[len(col_bounds) % len(widths)])
        col_bounds.append((c0, c1))
        c0 = c1
    cuts = sorted(set(draw(st.lists(st.integers(1, h), max_size=3))) - {h})
    edges = [0, *cuts, h]
    return s, t, list(zip(edges, edges[1:])), col_bounds


def _join(segments, col_tolerance):
    """Join consecutive segments of one row at most ``col_tolerance`` apart
    (the border join of the merge, spelled out)."""
    out = []
    for row, lo, hi, peak, score, hits in segments.tolist():
        last = out[-1] if out else None
        if last and last[0] == row and lo - last[2] <= col_tolerance:
            last[2] = hi
            last[5] += hits
            if score > last[4]:
                last[3], last[4] = peak, score
        else:
            out.append([row, lo, hi, peak, score, hits])
    return out


TOLERANCES = st.one_of(st.just(0), st.integers(0, 20))
FUSED_SCORINGS = st.sampled_from([Scoring(), Scoring(2, -1, -2), Scoring(1, -3, -1)])


class TestFusedCutParity:
    """The blocked runtime's detection: each tile's segments cut inside the
    DP loop, joined at the block borders and merged band by band, against
    :meth:`StreamingRegionFinder.feed` on the whole rows."""

    @given(tiled_pairs(), FUSED_SCORINGS, st.integers(1, 12), TOLERANCES, TOLERANCES)
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_tiles_join_to_feed(self, kernel, pair, scoring, threshold, col_tol, row_tol):
        s, t, row_bounds, col_bounds = pair
        config = RegionConfig(threshold, col_tol, row_tol)
        full = NumpyWorkspace(t, scoring).sw_rows(np.zeros(len(t) + 1, dtype=SCORE_DTYPE), s)
        reference = StreamingRegionFinder(config)
        for i, row in enumerate(full, start=1):
            reference.feed(i, row)
        fused = StreamingRegionFinder(config)  # one finder, one call per band
        top = np.zeros(len(t) + 1, dtype=SCORE_DTYPE)
        for r0, r1 in row_bounds:
            left, bottom, parts = np.zeros(r1 - r0, dtype=SCORE_DTYPE), top.copy(), []
            for c0, c1 in col_bounds:
                rows = np.empty((r1 - r0, c1 - c0 + 1), dtype=SCORE_DTYPE)
                part = KernelWorkspace(t[c0:c1], scoring).sw_rows_cut(
                    top[c0 : c1 + 1], s[r0:r1], left, threshold, col_tol, out=rows
                )
                assert np.array_equal(rows[:, 1:], full[r0:r1, c0 + 1 : c1 + 1])
                left, bottom[c0 + 1 : c1 + 1] = rows[:, -1].copy(), rows[-1, 1:]
                part[:, 1:4] += c0
                parts.append(part)
            segments = np.concatenate(parts)
            segments = segments[np.argsort(segments[:, 0], kind="stable")]
            want = cut_segments(full[r0:r1], threshold, col_tol)
            assert _join(segments, col_tol) == want.tolist()
            fused.feed_segments(r0 + 1, r1 - r0, segments)
            top = bottom
        assert fused.open_count() == reference.open_count()
        assert fused.finish() == reference.finish()

    @given(bands(), st.integers(1, 45), TOLERANCES, TOLERANCES, st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_compiled_merge_keeps_the_python_order(
        self, band_cuts, threshold, col_tol, row_tol, width
    ):
        """Same segments (cut in ``width``-column blocks, so borders need
        joining), same regions in the same active and finished order."""
        band, cuts = band_cuts
        config = RegionConfig(threshold, col_tol, row_tol)
        w = band.shape[1] - 1
        parts = []
        for c0 in range(0, w, width):
            window = band[:, c0 : c0 + width + 1]  # column 0: the border, never cut
            part = cut_segments(window, threshold, col_tol)
            part[:, 1:4] += c0
            parts.append(part)
        segments = np.concatenate(parts) if parts else np.empty((0, 6), dtype=np.int64)
        segments = segments[np.argsort(segments[:, 0], kind="stable")]
        edges = [0, *cuts, len(band)]

        def merged():
            finder = StreamingRegionFinder(config)
            for lo, hi in zip(edges, edges[1:]):
                rows = (segments[:, 0] >= lo) & (segments[:, 0] < hi)
                part = segments[rows].copy()
                part[:, 0] -= lo
                finder.feed_segments(1 + lo, hi - lo, part)
            count = finder.open_count()
            finder._lists()
            return count, list(finder._active), list(finder._finished), finder.finish()

        with pytest.MonkeyPatch.context() as m:
            _kernel_off(m)
            python = merged()
        assert ckernel.available()
        assert merged() == python
        assert python[3] == _regions(config, band)

    @pytest.mark.parametrize("threshold", [2**31, 2**31 - 1, 0, -(2**31), -(2**31) - 9, -(2**40)])
    def test_thresholds_at_the_int32_edges(self, kernel, threshold):
        """The loop compares cells in 32 bits; thresholds beyond int32 cut
        what the numpy cut does (nothing above, every cell below)."""
        rng = np.random.default_rng(11)
        t = rng.integers(0, 4, 30).astype(np.uint8)
        s = rng.integers(0, 4, 12).astype(np.uint8)
        rows = np.empty((12, 31), dtype=SCORE_DTYPE)
        prev = np.zeros(31, dtype=SCORE_DTYPE)
        got = KernelWorkspace(t).sw_rows_cut(prev, s, None, threshold, 2, out=rows)
        assert got.tolist() == cut_segments(rows, threshold, 2).tolist()

    def test_segment_buffer_refills(self, kernel):
        """Far more segments than one buffer holds (every positive cell its
        own segment): the loop stops at a whole row and resumes."""
        rng = np.random.default_rng(13)
        t = rng.integers(0, 4, 200).astype(np.uint8)
        s = rng.integers(0, 4, 60).astype(np.uint8)
        rows = np.empty((60, 201), dtype=SCORE_DTYPE)
        got = KernelWorkspace(t).sw_rows_cut(np.zeros(201, dtype=SCORE_DTYPE), s, None, 1, 0, out=rows)
        assert len(got) > 201 + 2 * 60  # the first pass's buffer
        assert np.array_equal(rows, NumpyWorkspace(t).sw_rows(np.zeros(201, dtype=SCORE_DTYPE), s))
        assert got.tolist() == cut_segments(rows, 1, 0).tolist()

    def test_feed_then_segments_on_one_finder(self, kernel):
        """The Python and the compiled merge hand the state over mid-stream."""
        rng = np.random.default_rng(5)
        band = rng.integers(0, 12, (30, 41)).astype(SCORE_DTYPE)
        config = RegionConfig(8, col_tolerance=2, row_tolerance=1)
        finder = StreamingRegionFinder(config)
        for i in range(1, 11):
            finder.feed(i, band[i - 1])
        finder.feed_rows(11, band[10:20])
        finder.feed(21, band[20])
        finder.feed_rows(22, band[21:])
        assert finder.finish() == _regions(config, band)

    def test_blocked_regions_identical_on_every_backend(self, kernel):
        from repro.parallel import AlignmentWorkerPool
        from repro.plan import InlineExecutor, PoolExecutor, SimExecutor, plan_blocked
        from repro.seq import genome_pair

        gp = genome_pair(900, 850, n_regions=2, region_length=80, mutation_rate=0.02, rng=41)
        graph = plan_blocked(len(gp.s), len(gp.t), n_procs=2, n_bands=5, n_blocks=7, threshold=20)
        inline = InlineExecutor().run(graph, gp.s, gp.t).alignments
        sim = SimExecutor().run(graph, gp.s, gp.t).alignments
        with AlignmentWorkerPool(n_workers=2) as pool:  # forked: the kernel switch holds
            pooled = PoolExecutor(pool).run(graph, gp.s, gp.t).alignments
        assert inline
        assert inline == sim == pooled
        assert ckernel.available() == (kernel == "compiled")


#: Row widths on, just below and just above the 8-column chunks of the
#: AVX2 row body, plus rows long enough for many chunks.
ROW_EDGES = (7, 8, 9, 15, 16, 17, 63, 64, 65)
ROW_WIDTHS = st.one_of(st.sampled_from(ROW_EDGES), st.integers(500, 700))


@st.composite
def edge_tiles(draw):
    """Tiles whose widths sit at the chunk edges (or span many chunks)."""
    scoring, alphabet, max_h = draw(REGIMES)
    w = draw(ROW_WIDTHS)
    h = draw(st.integers(1, max_h if w < 500 else min(max_h, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.integers(0, alphabet, h).astype(np.uint8)
    t = rng.integers(0, alphabet, w).astype(np.uint8)
    prev = rng.integers(0, 30, w + 1).astype(SCORE_DTYPE)
    lefts = rng.integers(-10, 30, h).astype(SCORE_DTYPE)
    return scoring, s, t, prev, lefts


@st.composite
def hot_rows(draw):
    """A few rows under a border row with hot column runs, so the hits of
    the first rows sit where the runs are: segments open and close at any
    column, in a chunk or in the scalar remainder, and the gaps between
    them straddle chunk edges."""
    w = draw(ROW_WIDTHS)
    h = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prev = rng.integers(0, 8, w + 1).astype(SCORE_DTYPE)
    for _ in range(draw(st.integers(1, 6))):
        lo = draw(st.integers(0, w))
        hi = draw(st.integers(lo, min(w, lo + 40)))
        prev[lo : hi + 1] = draw(st.sampled_from([30, 60, 61]))  # equal tops
    alphabet = draw(st.sampled_from([1, 2, 4]))
    s = rng.integers(0, alphabet, h).astype(np.uint8)
    t = rng.integers(0, alphabet, w).astype(np.uint8)
    return s, t, prev


class TestRowChunkEdges:
    """The AVX2 row body (8 columns a chunk, a scalar remainder) against
    the numpy rows at the chunk edges, on whichever body this host runs."""

    @given(edge_tiles())
    @settings(max_examples=150, deadline=None)
    def test_batches(self, tile):
        scoring, s, t, prev, lefts = tile
        fast, ref = _pair(t, scoring, False)
        assert np.array_equal(fast.sw_rows(prev, s), ref.sw_rows(prev, s))
        assert np.array_equal(fast.nw_rows(prev, s, lefts), ref.nw_rows(prev, s, lefts))
        assert np.array_equal(
            fast.sw_rows_slice(prev, s, lefts), ref.sw_rows_slice(prev, s, lefts)
        )

    @given(edge_tiles(), st.integers(-6, 0))
    @settings(max_examples=100, deadline=None)
    def test_nw_rows_negative_borders(self, tile, slope):
        """Global rows under falling borders: every cell can be negative."""
        scoring, s, t, _, _ = tile
        prev = (slope * 50 * np.arange(len(t) + 1)).astype(SCORE_DTYPE)
        lefts = (slope * 50 * np.arange(1, len(s) + 1) - 7).astype(SCORE_DTYPE)
        fast, ref = _pair(t, scoring, False)
        assert np.array_equal(fast.nw_rows(prev, s, lefts), ref.nw_rows(prev, s, lefts))

    @given(hot_rows(), st.integers(20, 62), TOLERANCES)
    @settings(max_examples=300, deadline=None)
    def test_cut_at_chunk_edges(self, rows, threshold, col_tol):
        s, t, prev = rows
        out = np.empty((len(s), len(t) + 1), dtype=SCORE_DTYPE)
        got = KernelWorkspace(t).sw_rows_cut(prev, s, None, threshold, col_tol, out=out)
        assert np.array_equal(out, NumpyWorkspace(t).sw_rows(prev, s))
        assert got.tolist() == cut_segments(out, threshold, col_tol).tolist()

    @pytest.mark.parametrize("w", [16, 17, 24, 63, 64, 65, 500, 503])
    def test_one_letter_ties_across_lanes(self, w):
        """One letter: each row is a ramp up to a plateau of equal cells,
        so whole-hit chunks hold the row maximum in every lane and the
        first maximum must come from the right lane of the right chunk."""
        t = np.zeros(w, dtype=np.uint8)
        s = np.zeros(12, dtype=np.uint8)
        prev = np.zeros(w + 1, dtype=SCORE_DTYPE)
        prev[w // 3] = 9  # a second plateau start inside the row
        out = np.empty((12, w + 1), dtype=SCORE_DTYPE)
        for threshold, col_tol in ((1, 0), (3, 2), (5, 16), (9, 7)):
            got = KernelWorkspace(t).sw_rows_cut(prev, s, None, threshold, col_tol, out=out)
            assert np.array_equal(out, NumpyWorkspace(t).sw_rows(prev, s))
            assert got.tolist() == cut_segments(out, threshold, col_tol).tolist()

    @pytest.mark.parametrize("w", [16, 17, 31, 64, 65, 500])
    def test_in_place_single_row_batch(self, w):
        """``out`` aliasing ``prev`` across several chunks and a remainder,
        row after row, as the reverse scan runs."""
        rng = np.random.default_rng(w)
        t = rng.integers(0, 4, w).astype(np.uint8)
        s = rng.integers(0, 4, 20).astype(np.uint8)
        row = rng.integers(0, 20, w + 1).astype(SCORE_DTYPE)
        expected = NumpyWorkspace(t).sw_rows(row.copy(), s)
        fast = KernelWorkspace(t)
        for r in range(len(s)):
            fast.sw_rows(row, s[r : r + 1], out=row[None, :])
            assert np.array_equal(row, expected[r])

    @pytest.mark.parametrize("w", [8, 17, 64])
    def test_wide_scores_past_the_range_rule(self, w):
        """+2^28 matches over 8 rows: the range rule's bound leaves int32,
        so the call runs the int64 loop; the true scores still fit (one
        match column), and both paths give them."""
        scoring = Scoring(2**28, -1, -2)
        t = np.full(w, 1, dtype=np.uint8)
        t[w // 2] = 0
        s = np.zeros(8, dtype=np.uint8)
        s[3] = 2
        prev = np.arange(w + 1, dtype=SCORE_DTYPE)
        lefts = np.arange(8, dtype=SCORE_DTYPE)
        fast, ref = KernelWorkspace(t, scoring), NumpyWorkspace(t, scoring)
        assert np.array_equal(fast.sw_rows(prev, s), ref.sw_rows(prev, s))
        assert np.array_equal(fast.nw_rows(prev, s, lefts), ref.nw_rows(prev, s, lefts))

    @pytest.mark.parametrize("floor", [-(2**31) + 3, -(2**31) + 40, -(2**31) + 10**5])
    @pytest.mark.parametrize("w", [9, 64, 500])
    def test_borders_near_int32_min(self, floor, w):
        """Border cells at the bottom of int32: the first two floors put the
        range rule's lower bound out of int32 (the int64 loop runs), the
        last keeps it in (the lanes run right at the edge)."""
        rng = np.random.default_rng(w)
        t = rng.integers(0, 4, w).astype(np.uint8)
        s = rng.integers(0, 4, 6).astype(np.uint8)
        prev = rng.integers(0, 9, w + 1).astype(SCORE_DTYPE)
        prev[rng.integers(0, w + 1, w // 3)] = floor
        lefts = np.zeros(6, dtype=SCORE_DTYPE)
        lefts[1::2] = floor  # row 0 starts at 0, so no true score leaves int32
        fast, ref = KernelWorkspace(t), NumpyWorkspace(t)
        assert np.array_equal(fast.nw_rows(prev, s, lefts), ref.nw_rows(prev, s, lefts))
        assert np.array_equal(fast.sw_rows_slice(prev, s, lefts), ref.sw_rows_slice(prev, s, lefts))

    def test_row_lanes(self):
        assert ckernel.row_lanes() in (1, 8)


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

#: Window sizes of the index fuzz: both id dtypes on either side of their
#: edge (uint16 to k = 7, uint32 from k = 8), the extremes, and counts only.
INDEX_KS = (2, 6, 7, 8, 15, None)


@st.composite
def index_matrices(draw):
    """A packed code matrix: lanes of any length (widths below k too, zero
    lanes, past the compiled loop's 64-window tiles) padded with PAD_CODE,
    with PAD or codes >= 4 inside lanes, and lanes of code 0 only (where a
    4 is the sole flag bit)."""
    lanes = draw(st.sampled_from([0, 1, 2, 5, 17]))
    width = draw(st.one_of(st.integers(0, 40), st.integers(60, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, draw(st.sampled_from([1, 4])), (lanes, width)).astype(np.uint8)
    codes[np.arange(width) >= rng.integers(0, width + 1, (lanes, 1))] = PAD_CODE
    holes = rng.random((lanes, width)) < draw(st.sampled_from([0.0, 0.03, 0.3]))
    codes[holes] = rng.choice(np.array([4, 5, 17, 254, PAD_CODE], np.uint8), int(holes.sum()))
    return codes


def assert_same_index(got, want):
    assert got.k == want.k
    assert got.counts.dtype == want.counts.dtype == np.int64
    assert got.counts.shape == want.counts.shape
    assert got.counts.tobytes() == want.counts.tobytes()
    if want.kmer_ids is None:
        assert got.kmer_ids is None
        return
    assert got.kmer_ids.dtype == want.kmer_ids.dtype
    assert got.kmer_ids.shape == want.kmer_ids.shape
    assert got.kmer_ids.tobytes() == want.kmer_ids.tobytes()


class TestBoundIndexParity:
    @given(index_matrices(), st.sampled_from(INDEX_KS))
    @settings(max_examples=300, deadline=None)
    def test_matches_build_bound_index(self, codes, k):
        assert_same_index(ckernel.bound_index(codes, k), build_bound_index(codes, k))

    @pytest.mark.parametrize("k", INDEX_KS)
    def test_degenerate_shapes_and_views(self, k):
        rng = np.random.default_rng(3)
        wide = rng.integers(0, 4, (6, 150)).astype(np.uint8)
        wide[2, 20] = PAD_CODE  # a hole mid-lane
        wide[4, 30] = 9
        wide[5] = 0
        wide[5, 100] = 4  # a window's codes OR to exactly 4
        shapes = [
            np.zeros((0, 12), np.uint8),  # zero lanes
            np.zeros((4, 0), np.uint8),  # zero width
            wide[:, : (k or 2) - 1],  # narrower than one window
            wide[:, : k or 2],  # exactly one window
            wide[:, ::2],  # a strided view
            wide,
        ]
        for codes in shapes:
            assert_same_index(ckernel.bound_index(codes, k), build_bound_index(codes, k))

    def test_bad_k_is_refused_like_the_reference(self):
        codes = np.zeros((2, 9), np.uint8)
        for k in (0, 1, 16):
            with pytest.raises(ValueError, match="kmer_k"):
                build_bound_index(codes, k)
            with pytest.raises(ValueError, match="kmer_k"):
                ckernel.bound_index(codes, k)

    def test_other_matrices_are_left_to_the_reference(self):
        codes = np.zeros((2, 9), np.uint8)
        assert ckernel.bound_index(codes.astype(np.int64), 6) is None
        assert ckernel.bound_index(codes[0], 6) is None

    def test_packed_database_index_is_the_compiled_one(self, monkeypatch):
        """A database's memoised index comes from the compiled loop."""
        from repro.seq import pack_database, synthetic_database

        calls = []
        real = ckernel.bound_index
        monkeypatch.setattr(ckernel, "bound_index", lambda c, k: calls.append(k) or real(c, k))
        packed = pack_database(synthetic_database(n=40, min_length=0, max_length=60, rng=7), 8)
        for got, bucket in zip(packed.bound_index(DEFAULT_KMER_K), packed.buckets):
            assert_same_index(got, build_bound_index(bucket.codes, DEFAULT_KMER_K))
        assert calls == [DEFAULT_KMER_K] * len(packed.buckets)


def test_fasta_ingest_without_the_compiled_loop(tmp_path, monkeypatch):
    """With the compiled path off, ingest packs the same digest and the
    database builds the same indexes (with the numpy builder)."""
    from repro.seq import content_digest, pack_database, stream_fasta, synthetic_database
    from repro.seq import write_fasta

    path = tmp_path / "db.fa"
    write_fasta(path, synthetic_database(n=60, min_length=0, max_length=90, rng=11))
    packed = pack_database(stream_fasta(path), max_lanes=16)
    want = {k: packed.bound_index(k) for k in INDEX_KS}

    def broken():
        raise RuntimeError("no compiler")

    monkeypatch.setattr(ckernel, "_load", broken)
    monkeypatch.setattr(ckernel, "_tried", False)
    monkeypatch.setattr(ckernel, "_handle", None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = pack_database(stream_fasta(path), max_lanes=16)
        got = {k: again.bound_index(k) for k in INDEX_KS}
    assert not ckernel.available()
    assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 1
    assert content_digest(again) == content_digest(packed)
    for k in INDEX_KS:
        for g, w in zip(got[k], want[k], strict=True):
            assert_same_index(g, w)


@st.composite
def swept_databases(draw):
    """A query and a database's worth of buckets at one window size: zero to
    four buckets of any lane count (zero included) and width, each lane
    PAD_CODE past its length (lengths below k included), with PAD or codes
    >= 4 inside lanes and stretches of the query copied in, so that the
    hit counts are not all zero even at k = 15."""
    k = draw(st.sampled_from([2, 6, 7, 8, 15]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    query = rng.integers(0, 4, draw(st.integers(0, 80))).astype(np.uint8)
    buckets = []
    for _ in range(draw(st.integers(0, 4))):
        lanes = draw(st.sampled_from([0, 1, 3, 17]))
        width = draw(st.one_of(st.integers(0, 20), st.integers(60, 150)))
        codes = rng.integers(0, 4, (lanes, width)).astype(np.uint8)
        for lane in range(0, lanes, 2):
            n = min(width, query.size)
            codes[lane, :n] = query[:n]
        lengths = rng.integers(0, width + 1, lanes)
        lengths[: lanes // 3] = np.minimum(rng.integers(0, k, lanes // 3), width)
        holes = rng.random((lanes, width)) < draw(st.sampled_from([0.0, 0.02, 0.2]))
        codes[holes] = rng.choice(np.array([4, 5, 17, 254, PAD_CODE], np.uint8), int(holes.sum()))
        codes[np.arange(width) >= lengths[:, np.newaxis]] = PAD_CODE
        buckets.append((codes, lengths.astype(np.int64)))
    return k, query, buckets


class TestKmerHitsParity:
    """The compiled whole-database k-mer sweep against the numpy gather."""

    @given(swept_databases())
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_kmer_hits(self, database):
        from repro.core.bounds import QueryBoundContext, kmer_hits, kmer_id_dtype

        k, query, buckets = database
        ctx = QueryBoundContext(query, Scoring(1, -3, -4), k)
        indexes = [build_bound_index(codes, k) for codes, _ in buckets]
        lengths = np.concatenate([n for _, n in buckets] or [np.zeros(0, np.int64)])
        got = ckernel.kmer_hits([i.kmer_ids for i in indexes], lengths, k, ctx.kmer_table)
        parts = [kmer_hits(ctx, index) for index in indexes]
        want = np.concatenate(parts or [np.zeros(0, np.int64)])
        assert got.dtype == np.int64
        assert got.tobytes() == want.tobytes()
        raw = [kmer_hits(ctx, codes) for codes, _ in buckets]
        assert got.tolist() == np.concatenate(raw or [np.zeros(0, np.int64)]).tolist()
        assert all(i.kmer_ids.dtype == kmer_id_dtype(k) for i in indexes)

    def test_refuses_ids_lengths_or_table_that_do_not_fit(self):
        ids = [np.zeros((3, 4), np.uint16)]
        table = np.zeros(4**6 + 1, bool)
        lengths = np.array([9, 5, 0])
        assert ckernel.kmer_hits(ids, lengths, 6, table).tolist() == [0, 0, 0]
        for bad in (
            (ids, lengths[:2], 6, table),  # a length short
            ([ids[0].astype(np.uint32)], lengths, 6, table),  # another k's dtype
            (ids, lengths, 6, table[:-1]),  # another k's table
            (ids, lengths, 6, table.view(np.uint8)),
        ):
            with pytest.raises(ValueError, match="kmer_hits needs k=6"):
                ckernel.kmer_hits(*bad)


def _database_ceilings(scoring):
    """A query against a mixed-length database of several buckets: the
    whole-database ceilings from its indexes, and the per-bucket raw-code
    ones concatenated (the numpy reference)."""
    from repro.core.bounds import TieredFilter
    from repro.seq import pack_database, synthetic_database

    rng = np.random.default_rng(53)
    db = synthetic_database(n=90, min_length=0, max_length=140, rng=rng)
    query = np.concatenate([db[4].codes[:50], rng.integers(0, 4, 40).astype(np.uint8)])
    packed = pack_database(db, max_lanes=16)
    tiered = TieredFilter(query, scoring)
    lengths = np.concatenate([b.lengths for b in packed.buckets])
    got = tiered.ceilings(packed.bound_index(tiered.index_k), lengths)
    swept = [tiered.ceilings(b.codes, b.lengths) for b in packed.buckets]
    want = (
        np.concatenate([c for c, _ in swept]),
        {t: np.concatenate([p[t] for _, p in swept]) for t in swept[0][1]},
    )
    assert len(packed.buckets) > 1
    return got, want


def assert_same_ceilings(got, want):
    (combined, per_tier), (want_combined, want_tiers) = got, want
    assert combined.dtype == want_combined.dtype
    assert combined.tobytes() == want_combined.tobytes()
    assert list(per_tier) == list(want_tiers)
    for tier, values in per_tier.items():
        assert values.dtype == want_tiers[tier].dtype
        assert values.tobytes() == want_tiers[tier].tobytes()


@pytest.mark.parametrize("scoring", [Scoring(1, -3, -4), Scoring(2, 0, -1)], ids=["kmer", "no-kmer"])
def test_database_ceilings_equal_the_per_bucket_ones(scoring, monkeypatch):
    """One whole-database sweep gives each lane the ceilings the numpy
    per-bucket sweep gives it, combined and per tier, and it is the
    compiled loop that counts the hits."""
    calls = []
    real = ckernel.kmer_hits
    monkeypatch.setattr(ckernel, "kmer_hits", lambda *a: calls.append(len(a[0])) or real(*a))
    assert_same_ceilings(*_database_ceilings(scoring))
    assert len(calls) == (1 if scoring.mismatch < 0 else 0)


def test_database_ceilings_without_the_compiled_loop(monkeypatch):
    """A broken loader leaves the whole-database ceilings identical (the
    numpy gather runs bucket by bucket) and warns once."""
    want = _database_ceilings(Scoring(1, -3, -4))[0]

    def broken():
        raise RuntimeError("no compiler")

    monkeypatch.setattr(ckernel, "_load", broken)
    monkeypatch.setattr(ckernel, "_tried", False)
    monkeypatch.setattr(ckernel, "_handle", None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first, reference = _database_ceilings(Scoring(1, -3, -4))
        second, _ = _database_ceilings(Scoring(1, -3, -4))
    assert not ckernel.available()
    assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 1
    for fallback in (first, second, reference):
        assert_same_ceilings(fallback, want)


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


def test_search_db_pool_auto_matches_sequential():
    """The compiled lanes behind a real search: pool workers and the auto
    prefilter (on: the database is past its size gate)."""
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
    config = SearchConfig(top_k=7, prefilter="auto")
    DEFAULT_CACHE.clear()
    with AlignmentWorkerPool(n_workers=2) as pool:
        got = search_db(query, packed, config, pool=pool)
    assert got.hits == want
    assert got.prefilter != "off"  # the size gate let the tiers run

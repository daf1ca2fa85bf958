"""Planners: graph structure, spec round-trips, and the search blob."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.plan import (
    DYNAMIC,
    blocked_spec,
    build_plan,
    cached_plan,
    plan_blocked,
    plan_preprocess,
    plan_search_buckets,
    plan_wavefront,
    search_blob,
    state_shape,
    wavefront_spec,
)
from repro.seq.db import pack_database, synthetic_database


class TestWavefrontPlan:
    def test_tile_grid_and_edges(self):
        g = plan_wavefront(10, 8, n_procs=2, group_rows=4)
        # ceil(10/4) = 3 row groups x 2 processors.
        assert len(g.tiles) == 6
        for tile in g.tiles:
            g_idx, p = divmod(tile.id, 2)
            assert tile.owner == p
            expected = []
            if p > 0:
                expected.append(tile.id - 1)  # left neighbour, same group
            if g_idx > 0:
                expected.append(tile.id - 2)  # previous group, same column
            assert list(tile.deps) == expected

    def test_cells_cover_the_matrix_exactly(self):
        g = plan_wavefront(10, 8, n_procs=2, group_rows=4)
        assert g.total_cells == 10 * 8

    def test_too_few_columns_leave_empty_slices(self):
        """Fewer columns than processors: the last processors get an empty
        slice (zero-cell tiles that pass the border on), not an error."""
        g = plan_wavefront(10, 3, n_procs=4)
        assert g.params["slices"] == ((0, 1), (1, 2), (2, 3), (3, 3))
        assert g.total_cells == 10 * 3
        assert all(t.cells == 0 for t in g.tiles_of(3))

    def test_group_rows_must_be_positive(self):
        with pytest.raises(ValueError, match="group_rows"):
            plan_wavefront(10, 8, n_procs=2, group_rows=0)


class TestBlockedPlan:
    def test_round_robin_owners_and_edges(self):
        g = plan_blocked(40, 40, n_procs=2, n_bands=4, n_blocks=4)
        assert len(g.tiles) == 16
        for tile in g.tiles:
            band, block = tile.payload
            assert tile.owner == band % 2
            expected = []
            if band > 0:
                expected.append(tile.id - 4)  # passage row above
            if block > 0:
                expected.append(tile.id - 1)  # left column, same band
            assert list(tile.deps) == expected

    def test_cells_cover_the_matrix_exactly(self):
        g = plan_blocked(40, 40, n_procs=2, n_bands=4, n_blocks=4)
        assert g.total_cells == 40 * 40


class TestPreprocessPlan:
    def test_band_chunk_grid(self):
        g = plan_preprocess(40, 40, n_procs=2, band_size=10, chunk_size=10)
        assert g.params["n_bands"] == 4
        assert g.params["n_chunks"] == 4
        assert len(g.tiles) == 16
        assert g.total_cells == 40 * 40
        assert state_shape(g) == (5, 41)


class TestSpecs:
    def test_spec_rebuilds_the_identical_graph(self):
        g = plan_blocked(40, 40, n_procs=2, n_bands=4, n_blocks=4)
        rebuilt = build_plan(g.spec, 40, 40)
        assert rebuilt.tiles == g.tiles
        assert rebuilt.params == g.params

    def test_spec_survives_pickling(self):
        spec = wavefront_spec(n_procs=2, group_rows=16)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_spec_is_hashable(self):
        a = blocked_spec(n_procs=2, n_bands=4, n_blocks=4)
        b = blocked_spec(n_procs=2, n_bands=4, n_blocks=4)
        assert hash(a) == hash(b) and a == b

    def test_cached_plan_returns_the_same_object(self):
        spec = wavefront_spec(n_procs=2, group_rows=8)
        assert cached_plan(spec, 64, 64) is cached_plan(spec, 64, 64)

    def test_unknown_kind_rejected(self):
        spec = wavefront_spec(n_procs=2)
        bad = type(spec)("mystery", spec.params)
        with pytest.raises(ValueError, match="unknown plan kind"):
            build_plan(bad, 10, 10)


class TestSearchPlan:
    def test_buckets_become_dynamic_tiles(self):
        packed = pack_database(
            synthetic_database(n=8, min_length=40, max_length=90, rng=9)
        )
        g = plan_search_buckets(packed, 12, top_k=5)
        assert len(g.tiles) == len(packed.buckets)
        assert all(t.owner == DYNAMIC for t in g.tiles)
        assert all(t.deps == () for t in g.tiles)
        assert g.params["top_k"] == 5
        assert state_shape(g) is None

    def test_blob_offsets_recover_each_bucket(self):
        packed = pack_database(
            synthetic_database(n=8, min_length=40, max_length=90, rng=9)
        )
        g = plan_search_buckets(packed, 12)
        blob = search_blob(packed)
        assert blob.size == sum(int(b.codes.size) for b in packed.buckets)
        for tile, bucket in zip(g.tiles, packed.buckets):
            offset, width, lanes, _lengths, _indices = tile.payload
            view = blob[offset : offset + lanes * width].reshape(lanes, width)
            assert np.array_equal(view, bucket.codes)

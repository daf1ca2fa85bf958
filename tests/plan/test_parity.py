"""Cross-backend parity: one graph, identical answers everywhere.

The planner's whole promise is that the choice of backend -- simulated
cluster, inline, or the persistent pool -- changes *where* tiles run and
nothing about the results.  These tests push the same task graph through
all three (the pool through its executor ``run``) and require
bitwise-identical region sets, pre_process result matrices and search
rankings.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.obs as obs
from repro.parallel import AlignmentWorkerPool
from repro.plan import (
    InlineExecutor,
    SimExecutor,
    cached_plan,
    plan_blocked,
    plan_preprocess,
    plan_search_buckets,
    plan_wavefront,
    search_blob,
    wavefront_spec,
)
from repro.seq import encode, genome_pair
from repro.seq.db import pack_database, pack_subset, synthetic_database
from repro.strategies import SearchConfig, search_db, search_db_sequential


@pytest.fixture(scope="module")
def pair():
    gp = genome_pair(
        600, 600, n_regions=2, region_length=60, mutation_rate=0.02, rng=77
    )
    return encode(gp.s), encode(gp.t)


@pytest.fixture(scope="module")
def pool():
    with AlignmentWorkerPool(n_workers=2) as p:
        yield p


def regions(result):
    return sorted(
        (a.score, a.s_start, a.s_end, a.t_start, a.t_end) for a in result.alignments
    )


class TestRegionParity:
    def test_wavefront_identical_across_backends(self, pair, pool):
        s, t = pair
        graph = plan_wavefront(len(s), len(t), n_procs=2, group_rows=16)
        inline = InlineExecutor().run(graph, s, t)
        sim = SimExecutor().run(graph, s, t)
        pooled = pool.run(graph, s, t)
        assert regions(inline)
        assert regions(inline) == regions(sim) == regions(pooled)

    def test_blocked_identical_across_backends(self, pair, pool):
        s, t = pair
        graph = plan_blocked(len(s), len(t), n_procs=2, n_bands=8, n_blocks=8)
        inline = InlineExecutor().run(graph, s, t)
        sim = SimExecutor().run(graph, s, t)
        pooled = pool.run(graph, s, t)
        assert regions(inline)
        assert regions(inline) == regions(sim) == regions(pooled)

    @pytest.mark.parametrize("backend", ["sim", "inline", "pool"])
    @pytest.mark.parametrize("kind", ["wavefront", "blocked", "preprocess"])
    def test_one_column_target_runs_on_every_backend(self, pool, backend, kind):
        """A ``t`` narrower than the processor count is accepted everywhere:
        the extra processors' slices (or bands) are empty, so the regions
        (for pre_process, the result matrix) are the one-processor plan's."""
        s, t = encode("AAAACAAAAAAGAAAAAAAA"), encode("A")

        def plan(n_procs):
            if kind == "wavefront":
                return plan_wavefront(len(s), 1, n_procs=n_procs, threshold=1)
            if kind == "preprocess":
                return plan_preprocess(
                    len(s), 1, n_procs=n_procs, band_size=5, chunk_size=1, threshold=1
                )
            return plan_blocked(len(s), 1, n_procs=n_procs, n_bands=4, n_blocks=2, threshold=1)

        executor = {"sim": SimExecutor(), "inline": InlineExecutor(), "pool": pool}[backend]
        got = executor.run(plan(2), s, t)
        want = InlineExecutor().run(plan(1), s, t)
        if kind == "preprocess":
            assert want.extras["result_matrix"].sum() > 0
            assert (got.extras["result_matrix"] == want.extras["result_matrix"]).all()
            return
        assert regions(want)
        assert regions(got) == regions(want)

    def test_backends_are_stamped(self, pair, pool):
        s, t = pair
        graph = plan_blocked(len(s), len(t), n_procs=2, n_bands=8, n_blocks=8)
        inline = InlineExecutor().run(graph, s, t)
        pooled = pool.run(graph, s, t)
        assert inline.backend == "inline" and pooled.backend == "pool"
        assert inline.name == "blocked"
        assert inline.total_time == inline.wall_seconds


class TestSearchParity:
    def test_inline_pool_and_sequential_agree(self, pool):
        db = synthetic_database(n=10, min_length=40, max_length=90, rng=9)
        packed = pack_database(db)
        query = "ACGTACGTACGTACGT"
        q = encode(query)
        graph = plan_search_buckets(packed, len(q), top_k=5)
        inline = InlineExecutor().run(graph, q, search_blob(packed)).hits
        pooled = search_db(query, packed, SearchConfig(top_k=5), pool=pool).scores()
        sequential = search_db_sequential(query, packed, SearchConfig(top_k=5))
        reference = [(h.score, h.index) for h in sequential.hits]
        assert reference
        assert inline == pooled == reference


class TestTileTraceParity:
    """Attribution parity: every backend stamps the same tiles the same way.

    The same PlanSpec must yield identical traced tile-id sets -- and
    identical per-tile labels (owner/kind/cells/kernel/dtype) -- whether it
    runs inline, on the simulator, or on the pool.  This is what lets
    ``repro obs`` reports from different backends be compared directly.
    """

    @staticmethod
    def _traced_tiles(run):
        """Map tile id -> its full span-arg label for one traced run."""
        tiles = {}
        with obs.observed() as (tracer, _):
            run()
            for span in tracer.spans:
                if span.category == "computation" and "tile" in span.args:
                    args = dict(span.args)
                    tile_id = args.pop("tile")
                    tiles[tile_id] = tuple(sorted(args.items()))
        return tiles

    def test_same_spec_same_tiles_every_backend(self, pair, pool):
        s, t = pair
        spec = wavefront_spec(n_procs=2, group_rows=16)
        graph = cached_plan(spec, len(s), len(t))
        inline = self._traced_tiles(lambda: InlineExecutor().run(graph, s, t))
        sim = self._traced_tiles(lambda: SimExecutor().run(graph, s, t))
        pooled = self._traced_tiles(lambda: pool.run(graph, s, t))
        assert set(inline) == {tile.id for tile in graph.tiles}
        assert inline == sim == pooled

    def test_labels_carry_the_attribution_fields(self, pair):
        s, t = pair
        graph = plan_wavefront(len(s), len(t), n_procs=2, group_rows=16)
        traced = self._traced_tiles(lambda: InlineExecutor().run(graph, s, t))
        cells_by_id = {tile.id: tile.cells for tile in graph.tiles}
        for tile_id, label in traced.items():
            args = dict(label)
            assert set(args) == {"owner", "kind", "cells", "kernel", "dtype"}
            assert args["kind"] == "wavefront"
            assert args["cells"] == cells_by_id[tile_id]


class TestExecutorGuards:
    def test_real_backends_reject_scaled_workloads(self, pair, pool):
        s, t = pair
        graph = plan_wavefront(len(s), len(t), n_procs=2, group_rows=16)
        with pytest.raises(ValueError, match="scale=1"):
            InlineExecutor().run(graph, s, t, scale=4)
        with pytest.raises(ValueError, match="scale=1"):
            pool.run(graph, s, t, scale=4)

    def test_pool_executor_runs_search_graphs(self, pool):
        packed = pack_database(
            synthetic_database(n=4, min_length=40, max_length=60, rng=3)
        )
        graph = plan_search_buckets(packed, 8)
        query, blob = encode("ACGTACGT"), search_blob(packed)
        pooled = pool.run(graph, query, blob)
        assert pooled.backend == "pool"
        assert pooled.hits == InlineExecutor().run(graph, query, blob).hits

    def test_search_blob_of_another_layout_is_refused(self, pool):
        packed = pack_database(
            synthetic_database(n=40, min_length=40, max_length=300, rng=5)
        )
        # A subset re-packed into its own buckets has other locators than
        # the whole database, so the whole database's blob does not match.
        subset = pack_subset(packed, range(0, packed.n_sequences, 2))
        graph = plan_search_buckets(subset, 120, top_k=5)
        blob = search_blob(packed)
        assert blob.size != graph.shape[1]
        query = encode("ACGT" * 30)
        wrong = f"{graph.shape[1]}-byte blob, got 120 and {blob.size}"
        with pytest.raises(ValueError, match=wrong):
            InlineExecutor().run(graph, query, blob)
        with pytest.raises(ValueError, match=wrong):
            pool.run_search_plan(graph, query, blob)
        good = plan_search_buckets(packed, 120, top_k=5)
        with pytest.raises(ValueError, match="120-residue query"):
            InlineExecutor().run(good, query[:100], blob)

    def test_pool_executor_needs_a_spec(self, pair, pool):
        s, t = pair
        graph = plan_wavefront(len(s), len(t), n_procs=2, group_rows=16)
        with pytest.raises(ValueError, match="PlanSpec"):
            pool.run(dataclasses.replace(graph, spec=None), s, t)

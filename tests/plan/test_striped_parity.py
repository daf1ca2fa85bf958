"""Search kernel knob parity: striped == classic through every backend.

The search ``kernel`` knob travels two routes to a worker -- the graph's
params dict (sim / inline) and the job descriptor of a pool search -- and
both must select the striped bucket scan without changing a single ranking.
Pairwise plans have no kernel knob: every tile runs the one
:class:`repro.core.KernelWorkspace` row path, and its tiles are stamped
``classic``.
"""

from __future__ import annotations

import pytest

from repro.parallel import AlignmentWorkerPool
from repro.plan import (
    InlineExecutor,
    make_runtime,
    plan_preprocess,
    plan_search_buckets,
    plan_wavefront,
    search_blob,
)
from repro.plan.planners import blocked_spec, preprocess_spec, wavefront_spec
from repro.seq import encode, genome_pair
from repro.seq.db import pack_database, synthetic_database
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


class TestSearchParity:
    def test_inline_striped_matches_sequential(self):
        db = synthetic_database(n=30, min_length=40, max_length=200, rng=9)
        query = "ACGTACGTACGTACGTACGT"
        sequential = search_db_sequential(query, db, SearchConfig(top_k=5))
        striped = search_db(query, db, SearchConfig(top_k=5, kernel="striped"))
        assert striped.backend == "striped"
        assert sequential.scores()
        assert striped.scores() == sequential.scores()

    def test_pool_striped_matches_inline(self, pool):
        db = synthetic_database(n=30, min_length=40, max_length=200, rng=9)
        packed = pack_database(db)
        query = "ACGTACGTACGTACGTACGT"
        q = encode(query)
        graph = plan_search_buckets(packed, len(q), top_k=5, kernel="striped")
        assert graph.params["kernel"] == "striped"
        inline = InlineExecutor().run(graph, q, search_blob(packed)).hits
        pooled = search_db(
            query, packed, SearchConfig(top_k=5, kernel="striped"), pool=pool
        ).scores()
        classic = search_db(query, packed, SearchConfig(top_k=5), pool=pool).scores()
        assert inline
        assert inline == pooled == classic


class TestKernelValidation:
    def test_planners_reject_unknown_kernel(self):
        packed = pack_database(
            synthetic_database(n=4, min_length=40, max_length=60, rng=3)
        )
        with pytest.raises(ValueError, match="kernel"):
            plan_search_buckets(packed, 8, kernel="avx512")
        with pytest.raises(TypeError, match="kernel"):
            plan_wavefront(100, 100, n_procs=2, kernel="striped")

    def test_specs_reject_unknown_kernel(self):
        """Pairwise specs take no kernel at all, not even a known one."""
        with pytest.raises(TypeError, match="kernel"):
            wavefront_spec(2, kernel="classic")
        with pytest.raises(TypeError, match="kernel"):
            blocked_spec(2, 8, 8, kernel="striped")
        with pytest.raises(TypeError, match="kernel"):
            preprocess_spec(2, 50, 50, kernel="striped")

    def test_old_graphs_default_to_classic(self, pair):
        """Pairwise graphs carry no ``kernel`` param; their tiles run the
        classic rows and are stamped so in every span."""
        s, t = pair
        for graph in (
            plan_wavefront(len(s), len(t), n_procs=2, group_rows=16),
            plan_preprocess(len(s), len(t), n_procs=2, band_size=100, chunk_size=100),
        ):
            assert "kernel" not in graph.params
            assert "kernel" not in graph.spec.kwargs
            runtime = make_runtime(graph, s, t)
            assert runtime.tile_args(graph.tiles[0])["kernel"] == "classic"

"""Kernel knob parity: striped == classic through every backend.

The ``kernel`` knob travels two routes to a worker -- the graph's params
dict (sim / inline) and the PlanSpec rebuilt inside pool workers -- and
both must select the striped row kernel without changing a single result.
These tests run each planner with ``kernel="striped"`` and ``"classic"``
through the sim, inline and pool executors and require identical region
sets and search rankings, plus validation of the knob itself.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.parallel import AlignmentWorkerPool
from repro.plan import (
    InlineExecutor,
    PoolExecutor,
    SimExecutor,
    plan_blocked,
    plan_preprocess,
    plan_search_buckets,
    plan_wavefront,
    search_blob,
)
from repro.plan.planners import blocked_spec, preprocess_spec, wavefront_spec
from repro.seq import encode, genome_pair
from repro.seq.db import pack_database, synthetic_database
from repro.strategies import SearchConfig, search_db, search_db_sequential
from repro.strategies.runner import run_mp_pipeline

PLANNERS = {
    "wavefront": lambda m, n, kernel: plan_wavefront(
        m, n, n_procs=2, group_rows=16, kernel=kernel
    ),
    "blocked": lambda m, n, kernel: plan_blocked(
        m, n, n_procs=2, n_bands=8, n_blocks=8, kernel=kernel
    ),
    "preprocess": lambda m, n, kernel: plan_preprocess(
        m, n, n_procs=2, band_size=100, chunk_size=100, kernel=kernel
    ),
}


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
    @pytest.mark.parametrize("strategy", sorted(PLANNERS))
    def test_striped_matches_classic_inline_and_sim(self, pair, strategy):
        s, t = pair
        classic = PLANNERS[strategy](len(s), len(t), "classic")
        striped = PLANNERS[strategy](len(s), len(t), "striped")
        assert striped.params["kernel"] == "striped"
        assert striped.spec.kwargs["kernel"] == "striped"
        if strategy == "preprocess":
            # Preprocess graphs emit a scoreboard, not region alignments.
            want = InlineExecutor().run(classic, s, t).extras["result_matrix"]
            assert want.any()
            np.testing.assert_array_equal(
                InlineExecutor().run(striped, s, t).extras["result_matrix"], want
            )
            np.testing.assert_array_equal(
                SimExecutor().run(striped, s, t).extras["result_matrix"], want
            )
            return
        want = regions(InlineExecutor().run(classic, s, t))
        assert want
        assert regions(InlineExecutor().run(striped, s, t)) == want
        assert regions(SimExecutor().run(striped, s, t)) == want

    @pytest.mark.parametrize("strategy", ["wavefront", "blocked"])
    def test_striped_matches_classic_through_pool(self, pair, pool, strategy):
        s, t = pair
        classic = PLANNERS[strategy](len(s), len(t), "classic")
        striped = PLANNERS[strategy](len(s), len(t), "striped")
        want = regions(PoolExecutor(pool).run(classic, s, t))
        assert want
        assert regions(PoolExecutor(pool).run(striped, s, t)) == want

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda kernel: wavefront_spec(n_procs=2, group_rows=16, kernel=kernel),
            lambda kernel: blocked_spec(n_procs=2, n_bands=6, n_blocks=6, kernel=kernel),
        ],
        ids=["wavefront", "blocked"],
    )
    def test_pipeline_specs_carry_the_kernel(self, pair, pool, make_spec):
        gp = genome_pair(
            600, 600, n_regions=2, region_length=60, mutation_rate=0.02, rng=77
        )
        spec = make_spec("striped")
        assert spec.kwargs["kernel"] == "striped"
        striped = run_mp_pipeline(
            gp.s, gp.t, backend=spec.kind, pool=pool, phase1_config=spec
        )
        # Same tiling, only the kernel differs: regions depend on the tiling.
        classic = run_mp_pipeline(
            gp.s, gp.t, backend=spec.kind, pool=pool, phase1_config=make_spec("classic")
        )

        def keyed(result):
            return sorted(
                (r.score, r.s_start, r.s_end, r.t_start, r.t_end)
                for r in result.regions
            )

        assert keyed(classic)
        assert keyed(striped) == keyed(classic)


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
        pooled = pool.search(query, packed, top_k=5, kernel="striped")
        classic = pool.search(query, packed, top_k=5)
        assert inline
        assert inline == pooled == classic


class TestKernelValidation:
    def test_planners_reject_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            plan_wavefront(100, 100, n_procs=2, kernel="avx512")
        with pytest.raises(ValueError, match="kernel"):
            plan_blocked(100, 100, n_procs=2, n_bands=4, n_blocks=4, kernel="avx512")
        with pytest.raises(ValueError, match="kernel"):
            plan_preprocess(
                100, 100, n_procs=2, band_size=50, chunk_size=50, kernel="avx512"
            )
        packed = pack_database(
            synthetic_database(n=4, min_length=40, max_length=60, rng=3)
        )
        with pytest.raises(ValueError, match="kernel"):
            plan_search_buckets(packed, 8, kernel="avx512")

    def test_specs_reject_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            wavefront_spec(2, kernel="avx512")
        with pytest.raises(ValueError, match="kernel"):
            blocked_spec(2, 8, 8, kernel="avx512")
        with pytest.raises(ValueError, match="kernel"):
            preprocess_spec(2, 50, 50, kernel="avx512")

    def test_old_graphs_default_to_classic(self, pair):
        """Graphs planned before the knob existed carry no ``kernel`` param;
        runtimes must treat that as classic, not crash."""
        s, t = pair
        graph = plan_wavefront(len(s), len(t), n_procs=2, group_rows=16)
        params = dict(graph.params)
        params.pop("kernel", None)
        stripped = dataclasses.replace(graph, params=params)
        assert regions(InlineExecutor().run(stripped, s, t)) == regions(
            InlineExecutor().run(graph, s, t)
        )

"""Search parity: every backend, kernel and prefilter mode ranks the same.

For inline, pool and the simulated cluster, with either kernel and every
prefilter mode, the ranking is bitwise identical to
:func:`~repro.strategies.search.search_db_sequential`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.plan import SimExecutor, plan_search_buckets, search_blob
from repro.seq import pack_database, random_dna, synthetic_database
from repro.seq.alphabet import encode
from repro.strategies import (
    PREFILTER_MODES,
    SearchConfig,
    search_db,
    search_db_sequential,
)

KERNELS = ("classic", "striped")


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(77)
    db = synthetic_database(n=140, min_length=30, max_length=160, rng=rng)
    packed = pack_database(db)
    query = random_dna(150, rng)
    return query, packed


@pytest.fixture(scope="module")
def reference(workload):
    query, packed = workload
    return search_db_sequential(query, packed, SearchConfig(top_k=8)).scores()


class TestInlineParity:
    @pytest.mark.parametrize("prefilter", PREFILTER_MODES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matches_sequential(self, workload, reference, kernel, prefilter):
        query, packed = workload
        config = SearchConfig(top_k=8, kernel=kernel, prefilter=prefilter)
        assert search_db(query, packed, config).scores() == reference

    def test_fewer_sequences_than_top_k_still_exact(self, workload):
        query, _ = workload
        small = pack_database(
            synthetic_database(n=5, min_length=30, max_length=60, rng=1)
        )
        ref = search_db_sequential(query, small, SearchConfig(top_k=8)).scores()
        got = search_db(query, small, SearchConfig(top_k=8, prefilter="off"))
        assert got.scores() == ref


class TestSimParity:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matches_sequential(self, workload, reference, kernel):
        query, packed = workload
        q = encode(query)
        graph = plan_search_buckets(packed, len(q), top_k=8, kernel=kernel)
        result = SimExecutor().run(graph, q, search_blob(packed))
        assert result.hits == reference


class TestPoolParity:
    def test_every_kernel_and_prefilter(self, workload, reference):
        from repro.parallel import AlignmentWorkerPool

        query, packed = workload
        with AlignmentWorkerPool(n_workers=2) as pool:
            for kernel in KERNELS:
                for prefilter in PREFILTER_MODES:
                    config = SearchConfig(top_k=8, kernel=kernel, prefilter=prefilter)
                    result = search_db(query, packed, config, pool=pool)
                    assert result.scores() == reference, (kernel, prefilter)
                    assert result.n_workers == 2

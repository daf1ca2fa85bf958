"""Phase 2 (Section 4.4) as a plan kind: one graph, identical records everywhere.

The ``phase2`` plan is the paper's scattered mapping -- queue slot ``i`` on
rank ``i mod P``, no edges -- and the simulated cluster, the inline executor
and the persistent pool all run it through the same
:class:`~repro.plan.Phase2Runtime`.  These tests require identical records
from all three, on the edge cases too.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.core import LocalAlignment
from repro.core.global_align import align_region
from repro.obs.attrib import attribute, payload_from_tracer, rebuild_graph
from repro.parallel import AlignmentWorkerPool
from repro.plan import (
    InlineExecutor,
    SimExecutor,
    phase2_spec,
    plan_phase2,
    verify_graph,
)
from repro.seq import encode, genome_pair


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


def make_regions(n, seq_len=600, seed=5):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        ls, lt = (int(x) for x in rng.integers(20, 90, size=2))
        s0 = int(rng.integers(0, seq_len - ls))
        t0 = int(rng.integers(0, seq_len - lt))
        out.append(LocalAlignment(int(rng.integers(20, 60)), s0, s0 + ls, t0, t0 + lt))
    return out


def run_everywhere(graph, s, t, pool):
    """Records and queue of the graph on sim, inline and the pool."""
    runs = {
        "sim": SimExecutor().run(graph, s, t),
        "inline": InlineExecutor().run(graph, s, t),
        "pool": pool.run(graph, s, t),
    }
    return {name: (r.extras["records"], r.alignments) for name, r in runs.items()}


class TestPhase2Parity:
    def test_records_identical_across_backends(self, pair, pool):
        s, t = pair
        regions = make_regions(9)
        graph = plan_phase2(len(s), len(t), n_procs=2, regions=regions)
        runs = run_everywhere(graph, s, t, pool)
        ordered = sorted(regions, key=lambda r: (-r.size, r.region))
        expected = [align_region(s, t, r) for r in ordered]
        for records, queue in runs.values():
            assert records == expected
            assert queue == ordered
        assert pool.phase2(regions, s, t) == expected

    def test_empty_queue(self, pair, pool):
        s, t = pair
        graph = plan_phase2(len(s), len(t), n_procs=2, regions=[])
        for records, queue in run_everywhere(graph, s, t, pool).values():
            assert records == [] and queue == []
        assert pool.phase2([], s, t) == []

    def test_fewer_regions_than_ranks(self, pair, pool):
        s, t = pair
        regions = make_regions(1)
        graph = plan_phase2(len(s), len(t), n_procs=2, regions=regions)
        assert graph.tiles_of(1) == []
        assert verify_graph(graph, "pool") == []  # an idle rank is legal
        runs = run_everywhere(graph, s, t, pool)
        assert runs["sim"] == runs["inline"] == runs["pool"]
        assert len(runs["pool"][0]) == 1

    def test_score_only_mode_matches_render_mode(self, pair, pool):
        s, t = pair
        regions = make_regions(8)
        rendered = plan_phase2(len(s), len(t), n_procs=2, regions=regions)
        scores = plan_phase2(len(s), len(t), n_procs=2, regions=regions, render=False)
        similarity = [r.similarity for r in InlineExecutor().run(rendered, s, t).extras["records"]]
        for records, _queue in run_everywhere(scores, s, t, pool).values():
            assert records == similarity

    def test_no_locks_used(self, pair):
        """Section 4.4: 'no locks or condition variables are used'."""
        s, t = pair
        graph = plan_phase2(len(s), len(t), n_procs=4, regions=make_regions(12))
        res = SimExecutor().run(graph, s, t)
        for node in res.stats.nodes:
            assert node.lock_acquires == 0
            assert node.cv_waits == 0 and node.cv_signals == 0


class TestPhase2Plan:
    def test_scattered_mapping(self):
        regions = make_regions(7)
        graph = plan_phase2(600, 600, n_procs=3, regions=regions)
        sizes = [max(p[2] - p[1], p[4] - p[3]) for p in (t.payload for t in graph.tiles)]
        assert sizes == sorted(sizes, reverse=True)
        assert [t.owner for t in graph.tiles] == [i % 3 for i in range(7)]
        assert all(t.deps == () for t in graph.tiles)
        assert [t.cells for t in graph.tiles] == [
            (p[2] - p[1]) * (p[4] - p[3]) for p in (t.payload for t in graph.tiles)
        ]

    def test_spec_rebuilds_the_graph_and_accepts_tuples(self):
        regions = make_regions(5)
        tuples = [(r.score, r.s_start, r.s_end, r.t_start, r.t_end) for r in regions]
        graph = plan_phase2(600, 600, n_procs=2, regions=regions)
        assert phase2_spec(2, tuples[::-1]).build(600, 600).tiles == graph.tiles

    def test_region_outside_the_pair_is_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            plan_phase2(100, 100, n_procs=2, regions=[LocalAlignment(5, 0, 50, 80, 120)])

    def test_pool_phase2_span_rebuilds_from_a_json_trace(self, pair, pool):
        s, t = pair
        with obs.observed() as (tracer, metrics):
            pool.phase2(make_regions(6), s, t)
        payload = json.loads(json.dumps(payload_from_tracer(tracer, metrics)))
        a = attribute(payload, pick=0)
        assert a.kind == "phase2" and a.backend == "pool"
        assert a.tiles_traced == a.tiles_planned == 6
        assert a.cells_traced == a.cells_planned

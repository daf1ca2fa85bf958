import pytest

from repro.core import LocalAlignment
from repro.core.global_align import SubsequenceAlignment
from repro.plan import SimExecutor, plan_phase2, serial_phase2_time
from repro.seq import genome_pair, mutate, random_dna
from repro.strategies import run_pipeline


def make_regions(n, size=120, seq_len=4000, rng_seed=0):
    import numpy as np

    rng = np.random.default_rng(rng_seed)
    out = []
    for _ in range(n):
        length = int(rng.integers(size // 2, size * 2))
        s0 = int(rng.integers(0, seq_len - length))
        t0 = int(rng.integers(0, seq_len - length))
        out.append(LocalAlignment(10, s0, s0 + length, t0, t0 + length))
    return out


def simulate_phase2(s, t, regions, n_procs, render=True):
    graph = plan_phase2(len(s), len(t), n_procs=n_procs, regions=regions, render=render)
    return SimExecutor().run(graph, s, t)


class TestRunPhase2:
    """The phase2 plan on the simulated cluster; the cross-backend cases
    (empty queue, score-only mode, no locks) are in
    ``tests/plan/test_phase2_parity.py``."""

    def setup_method(self):
        self.s = random_dna(4000, rng=40)
        self.t = mutate(self.s, 0.05, rng=41)[:4000]

    def test_all_pairs_aligned(self):
        regions = make_regions(20)
        res = simulate_phase2(self.s, self.t, regions, n_procs=4)
        records = res.extras["records"]
        assert len(records) == 20
        assert all(isinstance(r, SubsequenceAlignment) for r in records)
        assert res.name == "phase2"

    def test_records_sorted_by_size(self):
        regions = make_regions(10)
        res = simulate_phase2(self.s, self.t, regions, n_procs=2)
        sizes = [r.source.size for r in res.extras["records"]]
        assert sizes == sorted(sizes, reverse=True)
        assert [r.source for r in res.extras["records"]] == res.alignments

    def test_speedup_scales(self):
        regions = make_regions(200, size=200)
        serial = serial_phase2_time(regions)
        res = simulate_phase2(self.s, self.t, regions, n_procs=8, render=False)
        assert serial / res.total_time > 5.0

    def test_identical_subsequences_score_maximal(self):
        region = LocalAlignment(10, 100, 200, 100, 200)
        res = simulate_phase2(self.s, self.s, [region], n_procs=1)
        rec = res.extras["records"][0]
        assert rec.similarity == 100
        assert rec.alignment.identity == 1.0

    def test_scaled_graph_is_rejected(self):
        graph = plan_phase2(4000, 4000, n_procs=2, regions=make_regions(2))
        with pytest.raises(ValueError, match="scale=1"):
            SimExecutor().run(graph, self.s, self.t, scale=2)


class TestRunPipeline:
    def test_end_to_end_recovers_regions(self):
        gp = genome_pair(1500, 1500, n_regions=2, region_length=90, mutation_rate=0.03, rng=42)
        result = run_pipeline(gp.s, gp.t, strategy="heuristic_block", n_procs=4)
        assert len(result.records) >= 2
        best = result.best_records(2)
        assert all(r.alignment.identity > 0.7 for r in best)

    def test_wavefront_strategy_selectable(self):
        gp = genome_pair(600, 600, n_regions=1, region_length=60, mutation_rate=0.0, rng=43)
        result = run_pipeline(gp.s, gp.t, strategy="heuristic", n_procs=2)
        assert result.phase1.name == "heuristic"
        assert result.total_time > 0

    def test_preprocess_strategy_has_no_phase2_input(self):
        gp = genome_pair(400, 400, n_regions=1, region_length=60, rng=44)
        result = run_pipeline(gp.s, gp.t, strategy="pre_process", n_procs=2)
        assert result.records == []
        assert "result_matrix" in result.phase1.extras

    def test_unknown_strategy(self):
        gp = genome_pair(100, 100, n_regions=0, rng=45)
        with pytest.raises(ValueError):
            run_pipeline(gp.s, gp.t, strategy="magic")

    def test_fig16_render(self):
        gp = genome_pair(800, 800, n_regions=1, region_length=80, mutation_rate=0.05, rng=46)
        result = run_pipeline(gp.s, gp.t, strategy="heuristic_block", n_procs=2)
        assert result.best_records(1)
        text = result.best_records(1)[0].render()
        assert "similarity:" in text and "align_s:" in text

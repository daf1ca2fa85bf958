"""Microbenchmarks of the computational kernels (wall-clock, not virtual).

These time the building blocks the whole reproduction stands on: the
vectorized DP row advance (and its deliberately naive per-cell ablation),
hit counting, the streaming region finder, BLAST seeding, and the
discrete-event engine's raw event throughput.
"""

import numpy as np
import pytest

from repro.blast import WordIndex
from repro.core import count_hits, initial_row, smith_waterman
from repro.core.engine import NumpyWorkspace
from repro.core.kernels import sw_row_naive
from repro.core.regions import RegionConfig, StreamingRegionFinder
from repro.seq import random_dna
from repro.sim import Delay, Simulator

ROW_WIDTH = 20_000


@pytest.fixture(scope="module")
def row_inputs():
    """The numpy (vectorized) rows, advanced as one-row batches."""
    t = random_dna(ROW_WIDTH, rng=1)
    prev = initial_row(ROW_WIDTH, local=True)
    return prev, NumpyWorkspace(t)


def test_bench_sw_row_vectorized(benchmark, row_inputs):
    prev, ws = row_inputs
    result = benchmark(ws.sw_rows, prev, [0])
    assert result.shape == (1, prev.size)


def test_bench_nw_row_vectorized(benchmark, row_inputs):
    _, ws = row_inputs
    prev = initial_row(ROW_WIDTH, local=False)
    result = benchmark(ws.nw_rows, prev, [0], [-2])
    assert result.shape == (1, prev.size)


def test_bench_sw_row_naive_ablation(benchmark):
    """The per-cell kernel the vectorized one replaces (DESIGN.md ablation)."""
    t = random_dna(2000, rng=2)
    prev = initial_row(2000, local=True)
    result = benchmark(sw_row_naive, prev, 0, t)
    assert result.shape == prev.shape


def test_vectorized_kernel_speedup_vs_naive(benchmark):
    """The scan-based kernel must beat the naive loop by a wide margin."""
    import time

    t = random_dna(4000, rng=3)
    prev = initial_row(4000, local=True)
    ws = NumpyWorkspace(t)

    def measure():
        start = time.perf_counter()
        for _ in range(50):
            ws.sw_rows(prev, [1])
        fast = time.perf_counter() - start
        start = time.perf_counter()
        sw_row_naive(prev, 1, t)
        slow = (time.perf_counter() - start) * 50
        return slow / fast

    ratio = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert ratio > 20, f"vectorized kernel only {ratio:.1f}x faster"


def test_bench_count_hits(benchmark, row_inputs):
    prev, ws = row_inputs
    row = ws.sw_rows(prev, [0])[0]
    hits = benchmark(count_hits, row, 1)
    assert hits >= 0


def test_bench_full_smith_waterman_500(benchmark):
    s = random_dna(500, rng=4)
    t = random_dna(500, rng=5)
    result = benchmark(smith_waterman, s, t)
    assert result.alignment.score >= 0


def test_bench_region_finder_feed(benchmark):
    ws = NumpyWorkspace(random_dna(ROW_WIDTH, rng=6))
    finder_rows = ws.sw_rows(initial_row(ROW_WIDTH, local=True), random_dna(8, rng=7))

    def feed_all():
        finder = StreamingRegionFinder(RegionConfig(threshold=4))
        for i, row in enumerate(finder_rows, 1):
            finder.feed(i, row)
        return finder.finish()

    benchmark(feed_all)


def test_bench_blast_seed_hits(benchmark):
    subject = random_dna(50_000, rng=8)
    query = random_dna(50_000, rng=9)
    index = WordIndex(subject, word_size=11)
    q_pos, _ = benchmark(index.seed_hits, query)
    assert q_pos is not None


def test_bench_des_event_throughput(benchmark):
    """Raw simulator throughput: ping-pong of 20k timed events."""

    def run_sim():
        sim = Simulator()

        def proc():
            for _ in range(10_000):
                yield Delay(1.0)

        sim.spawn(proc())
        sim.spawn(proc())
        return sim.run()

    final = benchmark(run_sim)
    assert final == 10_000.0

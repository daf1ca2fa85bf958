"""Microbenchmarks for the zero-copy engine and the persistent worker pool.

Two acceptance numbers live here:

* the workspace's numpy rows (:class:`repro.core.engine.NumpyWorkspace`
  batches) must reach at least 2x the cells/second of the pre-workspace
  ``sw_row`` kernel (a faithful
  copy of which is inlined below as the baseline) on a 4 kBP x 4 kBP scan;
* ten repeated wave-front alignments through one
  :class:`repro.parallel.AlignmentWorkerPool` are timed (pool seconds and
  GCUPS), the number ``test_bench_guard.py`` holds to its 30% rule.

Both raw timings land in ``BENCH_kernels.json`` via the ``perf_record``
fixture in conftest.py.  Throughput is additionally recorded in GCUPS (giga
cell updates per second, the SW literature's unit) derived from the
``repro.obs`` metrics registry: the scan runs once under ``observed()`` so
the engine's own ``cells_computed`` counter -- not a hand-derived constant --
is what the number is computed from.
"""

import time

import numpy as np
import pytest

from repro.core import KernelWorkspace, initial_row
from repro.core.engine import NumpyWorkspace
from repro.core.linear import sw_blocks
from repro.core.kernels import SCORE_DTYPE, sw_row_naive
from repro.core.scoring import DEFAULT_SCORING
from repro.obs import gcups, observed
from repro.seq import genome_pair, random_dna

N_4K = 4096


def _seed_sw_row(prev, s_char, t_codes, scoring=DEFAULT_SCORING):
    """The pre-workspace ``sw_row``, kept verbatim as the speedup baseline:
    per-call ``np.where`` substitution lookup, fresh candidate/ramp/int64
    buffers on every row."""
    sub = np.where(t_codes == s_char, np.int32(scoring.match), np.int32(scoring.mismatch))
    cand = np.empty(prev.size, dtype=SCORE_DTYPE)
    cand[0] = 0
    np.maximum(prev[:-1] + sub, prev[1:] + SCORE_DTYPE(scoring.gap), out=cand[1:])
    np.maximum(cand, 0, out=cand)
    g = -scoring.gap
    idx = np.arange(cand.size, dtype=np.int64)
    x = cand.astype(np.int64)
    x += g * idx
    np.maximum.accumulate(x, out=x)
    x -= g * idx
    return x.astype(SCORE_DTYPE)


@pytest.fixture(scope="module")
def scan_4k():
    s = random_dna(N_4K, rng=11)
    t = random_dna(N_4K, rng=12)
    return s, t


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved_samples(fns, samples=5, min_sample_s=0.5):
    """Per-call seconds of each of ``fns``, one list of ``samples`` each.

    The functions' samples alternate, so sample ``j`` of every function is
    taken back to back and a host speed-regime flip lands on all of them
    alike instead of on one side of a ratio.  Each sample repeats its
    function for at least ``min_sample_s`` (the repeat count is fixed from
    one untimed calibration call).
    """
    repeats = []
    for fn in fns:
        start = time.perf_counter()
        fn()
        once = max(time.perf_counter() - start, 1e-9)
        repeats.append(max(1, int(np.ceil(min_sample_s / once))))
    per_call = [[] for _ in fns]
    for _ in range(samples):
        for times, fn, reps in zip(per_call, fns, repeats):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            times.append((time.perf_counter() - start) / reps)
    return per_call


def test_workspace_beats_seed_kernel_2x_on_4k(benchmark, scan_4k, perf_record):
    """Tentpole acceptance: >= 2x cells/sec over the old sw_row path."""
    s, t = scan_4k
    cells = len(s) * len(t)

    def seed_scan():
        prev = initial_row(len(t), local=True)
        for ch in s:
            prev = _seed_sw_row(prev, int(ch), t)
        return prev

    def workspace_scan():
        # Numpy workspace rows: the entry has always timed those.
        for _, rows in sw_blocks(NumpyWorkspace(t), s):
            pass
        return rows[-1]

    assert np.array_equal(seed_scan(), workspace_scan())

    seed_times, workspace_times = benchmark.pedantic(
        lambda: _interleaved_samples((seed_scan, workspace_scan)), rounds=1, iterations=1
    )
    seed_s, workspace_s = min(seed_times), min(workspace_times)
    # The speedup pairs each workspace sample with the seed sample taken
    # just before it, so both sides of every ratio share one host regime.
    ratio = float(np.median(np.divide(seed_times, workspace_times)))

    # One naive row, extrapolated: the per-cell loop is ~1000x off, a full
    # 4k x 4k naive scan would take minutes.
    prev = initial_row(len(t), local=True)
    start = time.perf_counter()
    sw_row_naive(prev, int(s[0]), t)
    naive_row_s = time.perf_counter() - start

    # The cell count comes from the metrics registry: one batched scan under
    # observed() proves the engine's own cells_computed counter agrees with
    # the m*n geometry, so the recorded GCUPS rests on counted cells.
    with observed("bench") as (_, metrics):
        ws = KernelWorkspace(t)
        block = np.empty((len(s), len(t) + 1), dtype=SCORE_DTYPE)
        ws.sw_rows(initial_row(len(t), local=True), s, out=block)
    cells_counted = metrics.counter("cells_computed").value
    assert cells_counted == cells

    # workspace_gcups is workspace_cells_per_s expressed in the SW
    # literature's unit: same cells, same timer, divided by 1e9.
    perf_record(
        "sw_scan_4096x4096",
        naive_cells_per_s=len(t) / naive_row_s,
        vectorized_cells_per_s=cells / seed_s,
        workspace_cells_per_s=cells / workspace_s,
        vectorized_seconds=seed_s,
        workspace_seconds=workspace_s,
        workspace_speedup_vs_vectorized=ratio,
        workspace_gcups=gcups(cells_counted, workspace_s),
        cells_counted=cells_counted,
    )
    assert ratio >= 2.0, f"workspace only {ratio:.2f}x the old sw_row path"


def test_workspace_batched_rows_on_matrix(benchmark, scan_4k, perf_record):
    """The sw_rows batch API filling a whole (m+1, n+1) matrix block."""
    s, t = scan_4k
    m, n = 512, len(t)
    H = np.zeros((m + 1, n + 1), dtype=SCORE_DTYPE)

    def fill():
        ws = KernelWorkspace(t)
        ws.sw_rows(H[0], s[:m], out=H[1:])
        return H

    benchmark.pedantic(fill, rounds=3, iterations=1)
    with observed("bench") as (_, metrics):
        start = time.perf_counter()
        fill()
        elapsed = time.perf_counter() - start
    cells_counted = metrics.counter("cells_computed").value
    assert cells_counted == m * n
    perf_record(
        "sw_rows_batched_512x4096",
        cells_per_s=m * n / elapsed,
        gcups=gcups(cells_counted, elapsed),
    )


def test_sanitizer_off_means_no_wrapping_and_no_segments(scan_4k):
    """Benchmark guard: with ``REPRO_SANITIZE`` unset the sanitizer must be
    structurally absent -- no singleton, no lock wrappers, no obs segment
    plumbing on the pool path -- so the numbers above measure the engine,
    not the instrumentation."""
    import os
    import threading

    from repro.check import sanitizer as san_mod
    from repro.check.sanitizer import get_sanitizer, sanitize_lock
    from repro.parallel import AlignmentWorkerPool
    from repro.plan import wavefront_spec

    prev = os.environ.pop(san_mod.ENV_VAR, None)
    san_mod.reset()
    try:
        assert get_sanitizer() is None
        lock = threading.Lock()
        assert sanitize_lock(lock, "bench") is lock  # identity, not a wrapper

        gp = genome_pair(
            400, 400, n_regions=1, region_length=50, mutation_rate=0.02, rng=52
        )
        with AlignmentWorkerPool(n_workers=2) as pool:
            pool.load_pair(gp.s, gp.t)
            pool.run_plan(wavefront_spec(n_procs=2, group_rows=16))
            # No tracer, no sanitizer => the pool never materializes an obs
            # directory: jobs run with zero telemetry plumbing.
            assert pool._obs_dir is None
        assert get_sanitizer() is None  # still off after a full pool lifecycle
    finally:
        if prev is not None:
            os.environ[san_mod.ENV_VAR] = prev
        san_mod.reset()


def test_pool_wavefront_10_repeats(benchmark, perf_record):
    """Ten wave-front requests on one persistent pool, the pair loaded once;
    every request returns the in-process executor's regions."""
    from repro.parallel import AlignmentWorkerPool
    from repro.plan import InlineExecutor, wavefront_spec

    gp = genome_pair(600, 600, n_regions=2, region_length=60, mutation_rate=0.02, rng=51)
    spec = wavefront_spec(n_procs=2, group_rows=16)
    reps = 10
    expected = InlineExecutor().run(spec.build(600, 600), gp.s, gp.t).alignments

    with AlignmentWorkerPool(n_workers=2) as pool:
        pool.load_pair(gp.s, gp.t)

        def requests():
            out = None
            for _ in range(reps):
                out = pool.run_plan(spec).alignments
            return out

        assert [a.region for a in requests()] == [a.region for a in expected]
        pool_s = benchmark.pedantic(
            lambda: _best_of(requests, rounds=3), rounds=1, iterations=1
        )

    perf_record(
        "pool_wavefront_10_repeats_600x600",
        pool_seconds=pool_s,
        pool_gcups=gcups(reps * 600 * 600, pool_s),
        n_workers=2,
        repeats=reps,
    )

"""The disabled-observability overhead budget: <2% on a 512x512 alignment.

The instrumentation contract is that every hook in a hot path is (a) batch-
grained, never per-row, and (b) guarded by one attribute check when no
tracer is installed.  This test enforces the budget two ways:

* an A/B timing of the instrumented batched kernel against a verbatim
  uninstrumented copy of its loop (the only difference is the hook), and
* a direct accounting check: the measured per-call cost of the disabled
  hook, multiplied by a generous per-row hook count, must stay under 2% of
  the full 512x512 alignment time.

Both checks run against the numpy rows (:class:`NumpyWorkspace`), the
path with a Python step per row for a hook to hide in.  The compiled tile
loop has no per-row Python at all; its batch fires the hook once, and the
accounting check holds that one call to the same 2% of its much shorter
alignment.

Timing comparisons on millisecond workloads are noisy, so the A/B check
takes best-of-several and retries before failing.
"""

from time import perf_counter

import numpy as np
import pytest

import repro.obs as obs
from repro.core import KernelWorkspace, ckernel, initial_row
from repro.core.engine import NumpyWorkspace
from repro.core.kernels import SCORE_DTYPE
from repro.seq import random_dna

N = 512


@pytest.fixture(scope="module")
def pair_512():
    return random_dna(N, rng=21), random_dna(N, rng=22)


def _best_of(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def test_observability_disabled_by_default():
    assert not obs.is_enabled()
    assert obs.get_tracer().enabled is False


def test_disabled_hook_overhead_under_2pct_on_512_alignment(pair_512):
    """Tier-1 budget: hooks cost <2% of a 512x512 alignment when disabled."""
    s, t = pair_512
    assert not obs.is_enabled()
    ws = NumpyWorkspace(t)
    H = np.zeros((N + 1, N + 1), dtype=SCORE_DTYPE)
    H[0] = initial_row(N, local=True)

    def instrumented():
        ws.sw_rows(H[0], s, out=H[1:])

    def uninstrumented():
        # sw_rows' loop, verbatim, minus the count_cells hook.
        row = H[0]
        out = H[1:]
        for r in range(N):
            row = ws._sw_row(row, int(s[r]), out=out[r])

    alignment_s = _best_of(instrumented)

    # Accounting bound: even if a hook fired once per ROW (the code only
    # fires once per batch), the disabled cost must fit the 2% budget.
    reps = 10_000
    t0 = perf_counter()
    for _ in range(reps):
        obs.count_cells(N)
    per_hook = (perf_counter() - t0) / reps
    assert per_hook * N < 0.02 * alignment_s, (
        f"disabled hook costs {per_hook * 1e9:.0f} ns; {N} of them exceed "
        f"2% of the {alignment_s * 1e3:.2f} ms alignment"
    )

    # A/B bound: the instrumented batch API vs its hook-free twin.  Retry a
    # few times -- ~1.5 ms timings jitter more than the 2% we are asserting.
    for attempt in range(4):
        a = _best_of(instrumented)
        b = _best_of(uninstrumented)
        if a <= b * 1.02:
            break
    else:
        pytest.fail(f"instrumented {a * 1e3:.3f} ms vs uninstrumented {b * 1e3:.3f} ms (>2%)")


@pytest.mark.skipif(not ckernel.available(), reason="compiled tile kernel not built")
def test_disabled_hook_overhead_under_2pct_on_compiled_512_alignment(pair_512):
    """The compiled batch fires one disabled hook; it fits the 2% budget."""
    s, t = pair_512
    assert not obs.is_enabled()
    ws = KernelWorkspace(t)
    H = np.zeros((N + 1, N + 1), dtype=SCORE_DTYPE)
    H[0] = initial_row(N, local=True)
    alignment_s = _best_of(lambda: ws.sw_rows(H[0], s, out=H[1:]))

    reps = 10_000
    t0 = perf_counter()
    for _ in range(reps):
        obs.count_cells(N)
    per_hook = (perf_counter() - t0) / reps
    assert per_hook < 0.02 * alignment_s, (
        f"disabled hook costs {per_hook * 1e9:.0f} ns, over 2% of the "
        f"{alignment_s * 1e3:.3f} ms compiled alignment"
    )


def test_enabled_hook_counts_exactly_once(pair_512):
    s, t = pair_512
    ws = KernelWorkspace(t)
    H = np.zeros((N + 1, N + 1), dtype=SCORE_DTYPE)
    H[0] = initial_row(N, local=True)
    with obs.observed() as (_, metrics):
        ws.sw_rows(H[0], s, out=H[1:])
    assert metrics.counter("cells_computed").value == N * N
    assert not obs.is_enabled()

"""Tile attribution must stay <2% overhead when observability is disabled.

The per-tile span stamping this feature added (tile_args construction, the
plan-span args with their O(tiles) critical-path walk) is gated on
``tracer.enabled``; with no tracer installed each tile pays one attribute
check and ``Executor.run`` pays one branch.  Enforced the same two ways as
``tests/obs/test_overhead.py``: an accounting bound on the measured cost of
the disabled check, and an A/B of the instrumented inline executor against a
verbatim hook-free copy of its loop.

The A/B runs the two sides in interleaved pairs that swap which side goes
first, and compares the median of the pairs' ratios: whichever side runs
first in a pair reads slower on this kind of host, and a speed-regime flip
lands on one pair instead of on one side.  Each side of a pair is the best
of 3 runs, which filters single-run spikes.  The plan (64 tiles of 64 x
1024 cells) is large enough that the executor's fixed per-run cost
(``Stopwatch``, the plan span, ``maybe_verify``) is a few tenths of a
percent of a run, so the ratio measures the per-tile hooks.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import pytest

import repro.obs as obs
from repro.core.scoring import DEFAULT_SCORING
from repro.plan import InlineExecutor, plan_wavefront
from repro.plan.runtime import finalize_plan, make_runtime
from repro.seq import encode, genome_pair

N = 2048
#: Interleaved pairs per try; the median of their ratios is compared.
PAIRS = 11


@pytest.fixture(scope="module")
def workload():
    gp = genome_pair(N, N, n_regions=1, region_length=60, mutation_rate=0.02, rng=33)
    s, t = encode(gp.s), encode(gp.t)
    return s, t, plan_wavefront(len(s), len(t), n_procs=2, group_rows=64)


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def _paired_ratio(a, b, pairs=PAIRS):
    """Median over interleaved pairs of ``a``'s time over ``b``'s, the
    side that runs first alternating from pair to pair."""
    ratios = []
    for k in range(pairs):
        if k % 2:
            tb = _best_of(b)
            ta = _best_of(a)
        else:
            ta = _best_of(a)
            tb = _best_of(b)
        ratios.append(ta / tb)
    return statistics.median(ratios)


def test_disabled_tile_attribution_overhead_under_2pct(workload):
    s, t, graph = workload
    assert not obs.is_enabled()

    def instrumented():
        InlineExecutor().run(graph, s, t)

    def uninstrumented():
        # InlineExecutor._execute, verbatim, minus every obs hook: no
        # Stopwatch, no tracer check, no tile_args, no cell counting.
        runtime = make_runtime(graph, s, t, DEFAULT_SCORING)
        for tile in graph.tiles:
            runtime.run_tile(tile)
        finalize_plan(graph, [runtime.emit(owner) for owner in graph.owners()])

    run_s = _best_of(instrumented)

    # Accounting bound: the disabled path costs one tracer-enabled check per
    # tile (plus one span-args branch per plan).  Even charging every tile
    # the measured per-check cost must fit the 2% budget.
    reps = 10_000
    t0 = perf_counter()
    for _ in range(reps):
        obs.get_tracer().enabled  # noqa: B018 -- the disabled branch itself
    per_check = (perf_counter() - t0) / reps
    assert per_check * len(graph.tiles) < 0.02 * run_s, (
        f"disabled check costs {per_check * 1e9:.0f} ns; {len(graph.tiles)} "
        f"of them exceed 2% of the {run_s * 1e3:.2f} ms run"
    )

    # A/B bound with retries: instrumented executor vs its hook-free twin.
    for _ in range(4):
        ratio = _paired_ratio(instrumented, uninstrumented)
        if ratio <= 1.02:
            break
    else:
        pytest.fail(
            f"instrumented over uninstrumented: median ratio {ratio:.4f} of "
            f"{PAIRS} interleaved pairs (>2%)"
        )


def test_plan_span_args_not_built_when_disabled(workload, monkeypatch):
    """The O(tiles) critical-path walk must not run on the disabled path."""
    s, t, graph = workload
    assert not obs.is_enabled()
    called = []
    monkeypatch.setattr(
        type(graph), "span_args", lambda self, **kw: called.append(1) or {}
    )
    InlineExecutor().run(graph, s, t)
    assert not called
    with obs.observed():
        InlineExecutor().run(graph, s, t)
    assert called

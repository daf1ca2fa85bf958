"""Benchmark regression guard over the committed BENCH_kernels.json.

Reruns the deterministic kernel suite (:mod:`repro.analysis.bench`) on this
machine and fails if any committed ``*_gcups`` or ``*_mb_per_s`` throughput
entry regresses by more than 30%.  The committed baseline was produced by
``genomedsm bench kernels`` on the repository's reference machine; the
``_machine`` stamp in the JSON says which.  On a different machine absolute
numbers shift, which is why the guard only fires on *regressions* against a
locally regenerated run -- it lives in ``benchmarks/`` (not ``tests/``) so
tier-1 CI, which runs on arbitrary shared runners, never judges wall-clock
throughput.

Usage: ``PYTHONPATH=src python -m pytest benchmarks/test_bench_guard.py``.
"""

import json
import os

import pytest

from repro.analysis.bench import run_kernel_bench
from repro.obs.ledger import REGRESSION_THRESHOLD

BASELINE_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")
)

#: Allowed throughput drop before the guard fires.  Generous because the
#: suite runs on whatever this host is doing right now; a real kernel
#: regression (a lost vectorized path, an accidental per-row allocation)
#: costs 2x or more, well past this line.  Shared with ``repro obs diff``
#: (it is the ledger's constant) so the two gates can never drift apart.
MAX_REGRESSION = REGRESSION_THRESHOLD

#: Wall-time / speedup keys are not guarded: seconds scale with machine
#: speed and speedups are ratios of two runs' noise.  Only the throughput
#: figures are: the *_gcups numbers the README table quotes, and the FASTA
#: ingest rate (``fasta_ingest_1500seq.ingest_mb_per_s``).
GUARDED_SUFFIX = ("_gcups", "_mb_per_s")


@pytest.fixture(scope="module")
def baseline() -> dict:
    if not os.path.exists(BASELINE_PATH):
        pytest.skip("no committed BENCH_kernels.json to guard against")
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def rerun() -> dict:
    return run_kernel_bench(quick=False)


#: Floor on the pruned-search entry's cache-hit speedup over its ``off``
#: scan.  Unlike the throughput figures this ratio is machine-independent
#: -- both times come from the same host seconds apart -- and a hit that
#: only beats the scan by less than this has started doing real work (planning, packing, DP),
#: which is exactly the regression the cache guard exists to catch.
MIN_CACHE_HIT_SPEEDUP = 50.0


def test_cache_hit_speedup_floor(rerun):
    entry = rerun.get("db_search_pruned_5000seq_1500bp_query")
    assert entry is not None, "pruned-search bench entry missing"
    assert entry["cache_hit_speedup"] >= MIN_CACHE_HIT_SPEEDUP, (
        f"cache hit only {entry['cache_hit_speedup']:.1f}x faster than the "
        f"unpruned scan (floor {MIN_CACHE_HIT_SPEEDUP:.0f}x): a hit should "
        f"skip planning and all DP work"
    )


def test_no_gcups_entry_regresses_30_percent(baseline, rerun):
    if baseline.get("_machine", {}).get("quick"):
        pytest.skip("baseline was recorded with --quick; not comparable")
    failures = []
    compared = 0
    for entry_key, entry in baseline.items():
        if entry_key.startswith("_") or not isinstance(entry, dict):
            continue
        fresh = rerun.get(entry_key)
        for key, value in entry.items():
            if not key.endswith(GUARDED_SUFFIX):
                continue
            if not isinstance(value, (int, float)) or value <= 0:
                continue
            if fresh is None or key not in fresh:
                failures.append(f"{entry_key}.{key}: missing from rerun")
                continue
            compared += 1
            ratio = fresh[key] / value
            if ratio < 1.0 - MAX_REGRESSION:
                failures.append(
                    f"{entry_key}.{key}: {fresh[key]:.4f} vs baseline "
                    f"{value:.4f} ({ratio:.0%} of baseline)"
                )
    assert compared > 0, "baseline has no throughput entries to guard"
    assert not failures, "throughput regressions:\n  " + "\n  ".join(failures)


def test_striped_entry_holds_3x_over_recorded_batched(baseline):
    """The tentpole acceptance number, pinned against the *recorded* history.

    The striped db-search entry must stay >= 3x the 0.28 GCUPS the batched
    kernel recorded before the striped kernel landed (the classic entry has
    since sped up too; the floor is the historical one the issue named).
    """
    entry = baseline.get("db_search_striped_1000seq_2kbp_query")
    if entry is None:
        pytest.skip("no striped db-search entry recorded yet")
    assert entry["striped_gcups"] >= 0.84, (
        f"striped db search at {entry['striped_gcups']:.3f} GCUPS, "
        "below 3x the 0.28 batched baseline"
    )


def test_pruned_entry_holds_acceptance_floor(baseline):
    """Score-bound pruning must keep earning its complexity budget.

    The issue's acceptance floor on the planted-homolog workload: at least
    40% of sequences pruned, and at least 1.5x wall time over the same scan
    with ``--prefilter off``.  Both are workload properties more than
    machine properties (the pruned fraction is deterministic; the speedup
    is a ratio of two same-machine runs), so unlike raw GCUPS they are
    pinned as absolute floors.
    """
    entry = baseline.get("db_search_pruned_5000seq_1500bp_query")
    if entry is None:
        pytest.skip("no pruned db-search entry recorded yet")
    assert entry["pruned_fraction"] >= 0.40, (
        f"prefilter pruned only {entry['pruned_fraction']:.1%} of sequences, "
        "below the 40% acceptance floor"
    )
    assert entry["pruned_speedup_vs_off"] >= 1.5, (
        f"pruned search only {entry['pruned_speedup_vs_off']:.2f}x over "
        "prefilter=off, below the 1.5x acceptance floor"
    )

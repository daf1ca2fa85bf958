"""Deterministic kernel benchmark suite behind ``genomedsm bench kernels``.

Regenerates every entry of ``BENCH_kernels.json`` from fixed seeds: the
4 kBP pairwise scan (naive -> vectorized -> workspace), the batched row
block, one 500 x 500 blocked tile through the compiled rows and through
numpy's, inline blocked phase 1 (DP plus region detection) on a planted
4 kbp pair, the 1,000-sequence database search through the classic batched
kernel (its compiled and numpy lanes timed apart) and the striped
query-profile kernel of :mod:`repro.core.striped` (its compiled and numpy
scans timed apart),
the score-bound-pruned search over a planted-homolog database
(:mod:`repro.strategies.prefilter`), ten wave-front requests on the
persistent worker pool, FASTA ingest (parse + pack) of a database
shaped like the ``search-fasta`` benchmark workload's, the prefilter
bound sweep over a warm bound index, and the compiled classic lanes on the
``search-pool`` workload's block shapes.  :data:`ENTRIES` lists the suite;
``run_kernel_bench(only=...)`` reruns some entries into a loaded payload.
The same workloads and timing discipline as the ``benchmarks/`` pytest
suite (min-of-rounds after a warmup call, cell counts cross-checked
against the ``repro.obs`` metrics registry), so numbers regenerated here
are comparable to the committed baseline on the same machine.

Every entry carries ``kernel``/``dtype``/``lane_mode`` fields naming the
code path it measured, and the file is stamped with a ``_machine`` record
(platform, python, numpy) so cross-machine diffs are self-explaining.
``quick=True`` shrinks the workloads for CI smoke runs; the resulting
numbers exercise the same code paths but are *not* comparable to the
committed baseline.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time

import numpy as np

from ..core import KernelWorkspace, StripedMultiWorkspace, initial_row
from ..core.engine import NumpyWorkspace
from ..core.kernels import SCORE_DTYPE, sw_row_naive
from ..core.linear import sw_blocks
from ..core.scoring import DEFAULT_SCORING, Scoring
from ..obs import gcups, observed
from ..seq import (
    FastaRecord,
    PackedDatabase,
    biased_dna,
    content_digest,
    genome_pair,
    mutate,
    pack_database,
    random_dna,
    stream_fasta,
    synthetic_database,
    write_fasta,
)
from ..strategies import SearchConfig, search_db, search_db_sequential

__all__ = ["record_bench", "run_kernel_bench", "write_bench"]


def _seed_sw_row(prev, s_char, t_codes, scoring=DEFAULT_SCORING):
    """The historical pre-workspace ``sw_row``, kept verbatim as the
    vectorized baseline: per-call ``np.where`` substitution lookup, fresh
    candidate/ramp/int64 buffers on every row."""
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


def _best_of(fn, rounds: int) -> float:
    """Min-of-rounds wall time after one untimed warmup call."""
    fn()
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _long_samples(fn, samples: int, min_sample_s: float) -> tuple[int, list[float]]:
    """``(repeats, per-call seconds of each sample)``.

    Each timed sample repeats ``fn`` until it lasts at least
    ``min_sample_s``, so one sample spans the host's speed-regime flips
    instead of landing inside one; the repeat count is fixed from an
    untimed calibration call.
    """
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-9)
    repeats = max(1, int(np.ceil(min_sample_s / once)))
    per_call = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        per_call.append((time.perf_counter() - start) / repeats)
    return repeats, per_call


def _machine(quick: bool) -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "quick": quick,
    }


def _bench_pair_scan(quick: bool, rounds: int) -> dict:
    """naive -> vectorized (seed kernel) -> workspace on one square scan."""
    n = 512 if quick else 4096
    s = random_dna(n, rng=11)
    t = random_dna(n, rng=12)
    cells = len(s) * len(t)

    def seed_scan():
        prev = initial_row(len(t), local=True)
        for ch in s:
            prev = _seed_sw_row(prev, int(ch), t)
        return prev

    def workspace_scan():
        # Numpy workspace rows, as this entry has always timed; the
        # compiled rows are timed by the batched and tile entries.
        for _, rows in sw_blocks(NumpyWorkspace(t), s):
            pass
        return rows[-1]

    if not np.array_equal(seed_scan(), workspace_scan()):
        raise AssertionError("workspace scan diverged from the seed kernel")
    seed_s = _best_of(seed_scan, rounds)
    workspace_s = _best_of(workspace_scan, rounds)

    # One naive row, extrapolated: the per-cell Python loop is ~1000x off.
    prev = initial_row(len(t), local=True)
    start = time.perf_counter()
    sw_row_naive(prev, int(s[0]), t)
    naive_row_s = time.perf_counter() - start

    # Prove the recorded GCUPS rests on *counted* cells: one batched scan
    # under observed() must agree with the m*n geometry.
    with observed("bench") as (_, metrics):
        ws = KernelWorkspace(t)
        block = np.empty((len(s), len(t) + 1), dtype=SCORE_DTYPE)
        ws.sw_rows(initial_row(len(t), local=True), s, out=block)
    cells_counted = metrics.counter("cells_computed").value
    if cells_counted != cells:
        raise AssertionError(f"counted {cells_counted} cells, expected {cells}")

    return {
        "kernel": "classic",
        "dtype": "int32",
        "lane_mode": "pairwise",
        "naive_cells_per_s": len(t) / naive_row_s,
        "vectorized_cells_per_s": cells / seed_s,
        "workspace_cells_per_s": cells / workspace_s,
        "vectorized_seconds": seed_s,
        "workspace_seconds": workspace_s,
        "workspace_speedup_vs_vectorized": seed_s / workspace_s,
        "workspace_gcups": gcups(cells_counted, workspace_s),
        "cells_counted": cells_counted,
    }


def _bench_batched_rows(quick: bool) -> dict:
    """The sw_rows batch API filling a whole matrix block.

    ``row_lanes`` is the compiled row body's column count on this CPU
    (:func:`repro.core.ckernel.row_lanes`).  Each of the five samples
    repeats the fill for at least 0.2 s; ``sample_spread`` is ``(slowest -
    fastest) / fastest`` over them.
    """
    from ..core import ckernel

    n = 512 if quick else 4096
    m = 128 if quick else 512
    s = random_dna(n, rng=11)
    t = random_dna(n, rng=12)
    block = np.zeros((m + 1, n + 1), dtype=SCORE_DTYPE)

    def fill():
        ws = KernelWorkspace(t)
        ws.sw_rows(block[0], s[:m], out=block[1:])
        return block

    repeats, per_call = _long_samples(fill, 1 if quick else 5, 0.0 if quick else 0.2)
    elapsed = min(per_call)
    return {
        "kernel": "classic",
        "dtype": "int32",
        "lane_mode": "pairwise",
        "row_lanes": ckernel.row_lanes(),
        "repeats_per_sample": repeats,
        "samples": len(per_call),
        "cells_per_s": m * n / elapsed,
        "gcups": gcups(m * n, elapsed),
        "sample_spread": (max(per_call) - elapsed) / elapsed,
    }


def _bench_tile(quick: bool) -> dict:
    """One blocked-strategy tile: the compiled rows against numpy's.

    The paper's band x block tile through :func:`compute_tile`, once with
    the compiled tile loop of :mod:`repro.core.ckernel` and once with the
    numpy reference rows; the two tiles are asserted bitwise equal first.
    ``row_lanes`` is the compiled row body's column count on this CPU.
    Each of the five samples of either side repeats the tile for at least
    0.2 s; ``*_sample_spread`` is ``(slowest - fastest) / fastest``.
    """
    from ..core import ckernel
    from ..core.engine import compute_tile

    n = 200 if quick else 500
    s = random_dna(n, rng=13)
    t = random_dna(n, rng=14)
    top = np.zeros(n + 1, dtype=SCORE_DTYPE)
    left = np.zeros(n, dtype=SCORE_DTYPE)
    compiled = KernelWorkspace(t)
    reference = NumpyWorkspace(t)

    def run(ws):
        return lambda: compute_tile(top, left, s, t, workspace=ws)

    if not np.array_equal(run(compiled)(), run(reference)()):
        raise AssertionError("compiled tile diverged from the numpy rows")
    cells = n * n
    entry: dict = {
        "kernel": "classic",
        "dtype": "int32",
        "lane_mode": "pairwise",
        "compiled": ckernel.available(),
        "row_lanes": ckernel.row_lanes(),
        "cells": cells,
    }
    for name, ws in (("compiled", compiled), ("numpy", reference)):
        repeats, per_call = _long_samples(run(ws), 1 if quick else 5, 0.0 if quick else 0.2)
        best = min(per_call)
        entry[f"{name}_repeats_per_sample"] = repeats
        entry[f"{name}_seconds"] = best
        entry[f"{name}_gcups"] = gcups(cells, best)
        entry[f"{name}_sample_spread"] = (max(per_call) - best) / best
    entry["samples"] = len(per_call)
    entry["compiled_speedup_vs_numpy"] = entry["numpy_seconds"] / entry["compiled_seconds"]
    return entry


def _bench_phase1_blocked(quick: bool) -> dict:
    """Inline blocked phase 1 on a planted 4 kbp pair: DP plus detection.

    The ``align-pool`` workload's request shape on one core: a seeded
    4 kbp :func:`genome_pair` with three planted 300 bp regions, through
    the 8 x 8 blocked plan on the inline executor, so each sample is every
    tile's DP with its fused segment cut, the per-band region merge and the
    queue finalisation.  Every planted region must be found first.  Each
    of the five samples repeats the run for at least 0.2 s;
    ``sample_spread`` is ``(slowest - fastest) / fastest`` over them, and
    ``row_lanes`` is the compiled row body's column count on this CPU.
    """
    from ..core import ckernel
    from ..plan import InlineExecutor, plan_blocked

    n = 1200 if quick else 4000
    gp = genome_pair(n, n, n_regions=1 if quick else 3, region_length=300, rng=91)
    graph = plan_blocked(n, n, n_procs=2, n_bands=8, n_blocks=8)
    executor = InlineExecutor()
    found = executor.run(graph, gp.s, gp.t).alignments
    for planted in gp.regions:
        if not any(
            a.s_start < planted.s_end and planted.s_start < a.s_end
            and a.t_start < planted.t_end and planted.t_start < a.t_end
            for a in found
        ):
            raise AssertionError(f"blocked phase 1 missed the planted region {planted}")
    repeats, per_call = _long_samples(
        lambda: executor.run(graph, gp.s, gp.t), 1 if quick else 5, 0.0 if quick else 0.2
    )
    best = min(per_call)
    return {
        "kernel": "classic",
        "dtype": "int32",
        "lane_mode": "pairwise",
        "plan": "blocked 8x8, inline",
        "row_lanes": ckernel.row_lanes(),
        "cells": n * n,
        "regions": len(found),
        "repeats_per_sample": repeats,
        "samples": len(per_call),
        "phase1_seconds": best,
        "phase1_gcups": gcups(n * n, best),
        "sample_spread": (max(per_call) - best) / best,
    }


def _search_workload(quick: bool):
    n_db = 200 if quick else 1000
    query_bp = 500 if quick else 2000
    db = synthetic_database(n=n_db, min_length=300, max_length=700, rng=77)
    query = random_dna(query_bp, rng=78)
    return query, db, n_db


def _bench_db_search(quick: bool, rounds: int) -> dict:
    """Classic batched search vs the one-at-a-time sequential reference.

    ``batched_*`` times the whole :func:`search_db`.  ``compiled_*`` and
    ``numpy_*`` time the kernel alone -- every bucket's
    :meth:`MultiSequenceWorkspace.sw_best_scores`, profile build included
    -- through the compiled lanes of :mod:`repro.core.ckernel` and through
    the numpy reference rows; their scores are asserted bitwise equal first.
    """
    from ..core import ckernel
    from ..core.multi_engine import MultiSequenceWorkspace, NumpyMultiWorkspace

    query, db, n_db = _search_workload(quick)
    subset = db[: max(20, n_db // 10)]
    config = SearchConfig(top_k=10)

    sequential = search_db_sequential(query, subset, config)
    if search_db(query, subset, config).scores() != sequential.scores():
        raise AssertionError("batched search ranking diverged from sequential")

    packed = pack_database(db)

    def scan(workspace):
        return lambda: [
            workspace(b.codes, b.lengths).sw_best_scores(query) for b in packed.buckets
        ]

    compiled = scan(MultiSequenceWorkspace)
    reference = scan(NumpyMultiWorkspace)
    if not all(map(np.array_equal, compiled(), reference())):
        raise AssertionError("compiled search lanes diverged from the numpy lanes")
    compiled_s = _best_of(compiled, rounds)
    numpy_s = _best_of(reference, rounds)

    elapsed = _best_of(lambda: search_db(query, packed, config), rounds)
    result = search_db(query, packed, config)

    sequential_rate = sequential.total_cells / sequential.wall_seconds
    batched_rate = result.total_cells / elapsed
    return {
        "kernel": "classic",
        "dtype": "int16",
        "lane_mode": "batched",
        "compiled": ckernel.available(),
        "n_sequences": n_db,
        "total_cells": result.total_cells,
        "padded_slots": packed.padded_slots,
        "sequential_cells_per_s": sequential_rate,
        "batched_cells_per_s": batched_rate,
        "sequential_gcups": gcups(sequential.total_cells, sequential.wall_seconds),
        "batched_gcups": gcups(result.total_cells, elapsed),
        "batched_seconds": elapsed,
        "batched_speedup_vs_sequential": batched_rate / sequential_rate,
        "compiled_seconds": compiled_s,
        "numpy_seconds": numpy_s,
        "compiled_gcups": gcups(result.total_cells, compiled_s),
        "numpy_gcups": gcups(result.total_cells, numpy_s),
        "compiled_speedup_vs_numpy": numpy_s / compiled_s,
    }


def _bench_db_search_striped(quick: bool, rounds: int, classic_gcups: float) -> dict:
    """The striped kernel on the same database-search workload.

    Parity with the classic ranking is asserted on the *full* database, and
    the compiled striped scan's scores against the numpy scan's, bitwise,
    before anything is timed; the recorded overflow counters come from the
    striped kernel's own stats hooks.
    """
    from ..core import ckernel, striped

    query, db, n_db = _search_workload(quick)
    config = SearchConfig(top_k=10, kernel="striped")
    classic = search_db(query, db, SearchConfig(top_k=10))

    packed = pack_database(
        db,
        max_lanes=config.resolved_max_lanes,
        max_waste=config.resolved_max_waste,
    )
    result = search_db(query, packed, config)
    if result.scores() != classic.scores():
        raise AssertionError("striped search ranking diverged from classic")

    def scan(workspace):
        return lambda: [
            workspace(b.codes, b.lengths).sw_best_scores(query) for b in packed.buckets
        ]

    compiled = scan(StripedMultiWorkspace)
    reference = scan(striped.NumpyStripedMultiWorkspace)
    if not all(map(np.array_equal, compiled(), reference())):
        raise AssertionError("compiled striped scan diverged from the numpy scan")
    compiled_s = _best_of(compiled, rounds)
    numpy_s = _best_of(reference, rounds)

    striped.reset_overflow_stats()
    elapsed = _best_of(lambda: search_db(query, packed, config), rounds)
    overflow = striped.overflow_stats()

    striped_gcups = gcups(result.total_cells, elapsed)
    return {
        "kernel": "striped",
        "dtype": "int8",
        "lane_mode": "auto",
        "compiled": ckernel.available(),
        "n_sequences": n_db,
        "total_cells": result.total_cells,
        "padded_slots": packed.padded_slots,
        "striped_cells_per_s": result.total_cells / elapsed,
        "striped_gcups": striped_gcups,
        "striped_seconds": elapsed,
        "striped_speedup_vs_batched": (
            striped_gcups / classic_gcups if classic_gcups else 0.0
        ),
        "compiled_seconds": compiled_s,
        "numpy_seconds": numpy_s,
        "compiled_gcups": gcups(result.total_cells, compiled_s),
        "numpy_gcups": gcups(result.total_cells, numpy_s),
        "compiled_speedup_vs_numpy": numpy_s / compiled_s,
        "overflow_lanes": overflow["lanes"],
        "overflow_recomputes": overflow["recomputes"],
    }


def _pruned_search_workload(quick: bool):
    """A database the bounds can actually prune.

    Uniform random equal-length sequences are unprunable -- every lane has
    the same ceiling and a chance-level best score right below it.  Real
    databases are not like that: lengths vary, composition varies, and the
    top-k is dominated by a few genuine homologs whose scores tower over the
    background.  This workload plants all three (length spread, AT/GC-biased
    subpopulations, mutated query substrings as homologs) under a stringent
    blastn-like scoring where background scores stay near zero, so the
    admissible ceilings separate cleanly from the seeded threshold.
    """
    rng = np.random.default_rng(42)
    scoring = Scoring(match=1, mismatch=-3, gap=-4)
    n_uniform = 300 if quick else 3000
    n_biased = 100 if quick else 1000
    n_homolog = 12 if quick else 40
    query = random_dna(1500, rng)
    db: list[FastaRecord] = []
    for i in range(n_uniform):
        length = int(rng.integers(150, 601))
        db.append(FastaRecord(f"bg{i:04d}", random_dna(length, rng)))
    for i in range(n_biased):
        length = int(rng.integers(150, 601))
        db.append(FastaRecord(f"at{i:04d}", biased_dna(length, 0.20, rng)))
    for i in range(n_biased):
        length = int(rng.integers(150, 601))
        db.append(FastaRecord(f"gc{i:04d}", biased_dna(length, 0.80, rng)))
    for i in range(n_homolog):
        span = int(rng.integers(350, 501))
        start = int(rng.integers(0, len(query) - span))
        db.append(
            FastaRecord(f"hom{i:02d}", mutate(query[start : start + span], 0.05, rng))
        )
    return query, db, scoring


def _bench_db_search_pruned(quick: bool, rounds: int) -> dict:
    """Exact score-bound pruning vs the same scan with ``--prefilter off``.

    Ranking parity with the sequential reference is asserted before timing;
    the recorded numbers are the pruned fraction and wall-time speedup the
    tiered filter buys on a database where most sequences provably cannot
    reach the top-10.  The entry also times a content-addressed cache hit
    of the ``off`` search: ``cache_hit_speedup`` is the machine-independent
    figure the benchmark guard floors -- a hit serves a stored result
    without planning or any DP tile, so it must be orders of magnitude
    faster than the scan that populated it.
    """
    from ..strategies.cache import DEFAULT_CACHE

    query, db, scoring = _pruned_search_workload(quick)
    off = SearchConfig(top_k=10, scoring=scoring, prefilter="off")
    on = SearchConfig(top_k=10, scoring=scoring, prefilter="kmer")
    packed = pack_database(db)

    sequential = search_db_sequential(query, packed, off)
    pruned = search_db(query, packed, on)
    if pruned.scores() != sequential.scores():
        raise AssertionError("pruned search ranking diverged from sequential")

    off_elapsed = _best_of(lambda: search_db(query, packed, off), rounds)
    on_elapsed = _best_of(lambda: search_db(query, packed, on), rounds)

    cached = SearchConfig(top_k=10, scoring=scoring, prefilter="off", cache=True)
    DEFAULT_CACHE.clear()
    search_db(query, packed, cached)  # the miss that populates the entry
    hit_elapsed = _best_of(lambda: search_db(query, packed, cached), max(rounds, 3))
    hit = search_db(query, packed, cached)
    if not hit.cached or hit.scores() != sequential.scores():
        raise AssertionError("cache hit diverged from the computed ranking")
    DEFAULT_CACHE.clear()

    return {
        "kernel": "classic",
        "dtype": "int16",
        "lane_mode": "batched",
        "prefilter": pruned.prefilter,
        "n_sequences": pruned.n_sequences,
        "total_cells": pruned.total_cells,
        "sequences_pruned": pruned.sequences_pruned,
        "pruned_fraction": pruned.pruned_fraction,
        "cells_skipped": pruned.cells_skipped,
        "off_seconds": off_elapsed,
        "pruned_seconds": on_elapsed,
        "off_gcups": gcups(pruned.total_cells, off_elapsed),
        "pruned_gcups": gcups(pruned.total_cells, on_elapsed),
        "pruned_speedup_vs_off": off_elapsed / on_elapsed,
        "cache_hit_seconds": hit_elapsed,
        "cache_hit_speedup": off_elapsed / hit_elapsed,
    }


def _bench_pool_wavefront(quick: bool, rounds: int) -> dict:
    """Ten wave-front requests on one persistent pool, the pair loaded once."""
    from ..parallel import AlignmentWorkerPool
    from ..plan import wavefront_spec

    gp = genome_pair(
        600, 600, n_regions=2, region_length=60, mutation_rate=0.02, rng=51
    )
    spec = wavefront_spec(n_procs=2, group_rows=16)
    reps = 3 if quick else 10

    with AlignmentWorkerPool(n_workers=2) as pool:
        pool.load_pair(gp.s, gp.t)

        def requests():
            for _ in range(reps):
                pool.run_plan(spec)

        # _best_of's warmup call pays the workers' first arena attach.
        pool_s = _best_of(requests, rounds)

    return {
        "kernel": "classic",
        "dtype": "int32",
        "lane_mode": "pairwise",
        "n_workers": 2,
        "repeats": reps,
        "pool_seconds": pool_s,
        "pool_gcups": gcups(reps * len(gp.s) * len(gp.t), pool_s),
    }


def _bench_fasta_ingest(quick: bool) -> dict:
    """Parse, pack and index a 1,500-record FASTA database from a file.

    The database is shaped like the ``search-fasta`` workload's (150-600 bp
    records wrapped at 70 columns) and is packed with the striped kernel's
    bucket shape, as ``repro search --kernel striped`` does on every run.
    Three stages are timed: ``parse`` (the records alone), ``ingest``
    (parse and pack, the parser's blocks packed straight into buckets) and
    ``index`` (the bound index a pruned search builds on a fresh packing,
    at the default k).  The packed digest is asserted equal to packing the
    written records in memory, and the index equal to
    :func:`repro.core.bounds.build_bound_index`, before anything is timed.
    Each stage takes five samples, each repeated for at least 0.2 s;
    ``*_sample_spread`` is ``(slowest - fastest) / fastest`` over them.
    Both rates are MB of FASTA file per second.
    """
    from ..core.bounds import DEFAULT_KMER_K, build_bound_index

    n_db = 300 if quick else 1500
    samples, min_sample_s = (1, 0.0) if quick else (5, 0.2)
    db = synthetic_database(n=n_db, min_length=150, max_length=600, rng=79)
    config = SearchConfig(kernel="striped")

    def ingest(records):
        return pack_database(
            records,
            max_lanes=config.resolved_max_lanes,
            max_waste=config.resolved_max_waste,
        )

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.fa")
        write_fasta(path, db)
        size = os.path.getsize(path)
        packed = ingest(stream_fasta(path))
        if content_digest(packed) != content_digest(ingest(db)):
            raise AssertionError("parsed FASTA database diverged from the records written")

        def index():
            fresh = PackedDatabase(packed.buckets, packed.names, packed.lengths)
            return fresh.bound_index(DEFAULT_KMER_K)

        for got, bucket in zip(index(), packed.buckets):
            want = build_bound_index(bucket.codes, DEFAULT_KMER_K)
            if (
                got.kmer_ids.tobytes() != want.kmer_ids.tobytes()
                or got.counts.tobytes() != want.counts.tobytes()
            ):
                raise AssertionError("bound index diverged from build_bound_index")
        stages = {
            "parse": lambda: list(stream_fasta(path)),
            "ingest": lambda: ingest(stream_fasta(path)),
            "index": index,
        }
        timed = {
            name: _long_samples(fn, samples, min_sample_s) for name, fn in stages.items()
        }
    entry: dict = {
        "kernel": "fasta_blocks",
        "dtype": "uint8",
        "lane_mode": "ingest",
        "n_sequences": n_db,
        "file_bytes": size,
        "samples": samples,
    }
    for name, (repeats, per_call) in timed.items():
        best = min(per_call)
        entry[f"{name}_seconds"] = best
        entry[f"{name}_repeats_per_sample"] = repeats
        entry[f"{name}_sample_spread"] = (max(per_call) - best) / best
    entry["ingest_mb_per_s"] = size / entry["ingest_seconds"] / 1e6
    entry["index_mb_per_s"] = size / entry["index_seconds"] / 1e6
    return entry


def _bench_bound_sweep(quick: bool) -> dict:
    """The pool coordinator's prefilter bound sweep, bound index warm.

    ``TieredFilter.ceilings`` (length, composition and k-mer tiers) in one
    call over the whole of an 800-sequence database shaped like the
    ``search-pool`` workload's (150-600 bp, classic packing) for one 400 bp
    query, reading the per-database :class:`repro.core.bounds.BoundIndex`
    built once up front: the compiled ``kmer_hits`` loop counts every
    lane's shared k-mers in one pass.  Ceilings from the index are asserted
    equal to the raw-code ones, bucket by bucket, before timing.  Each of
    the five samples repeats the sweep for at least 0.2 s;
    ``sample_spread`` is ``(slowest - fastest) / fastest`` over the samples.
    """
    from ..core import ckernel
    from ..core.bounds import TieredFilter

    n_db = 200 if quick else 800
    rng = np.random.default_rng(83)
    db = synthetic_database(n=n_db, min_length=150, max_length=600, rng=rng)
    query = random_dna(400, rng)
    packed = pack_database(db)
    tiered = TieredFilter(query, DEFAULT_SCORING)
    indexes = packed.bound_index(tiered.index_k)
    lengths = np.concatenate([bucket.lengths for bucket in packed.buckets])
    raw = np.concatenate(
        [tiered.ceilings(bucket.codes, bucket.lengths)[0] for bucket in packed.buckets]
    )
    if tiered.ceilings(indexes, lengths)[0].tobytes() != raw.tobytes():
        raise AssertionError("index ceilings diverged from the raw-code ones")

    def sweep():
        tiered.ceilings(indexes, lengths)

    repeats, per_call = _long_samples(sweep, 1 if quick else 5, 0.0 if quick else 0.2)
    best = min(per_call)
    cells = len(query) * packed.total_residues
    return {
        "kernel": "kmer_hits",
        "compiled": ckernel.available(),
        "dtype": "uint16",
        "lane_mode": "gather",
        "n_sequences": n_db,
        "query_bp": len(query),
        "total_cells": cells,
        "index_bytes": sum(index.nbytes for index in indexes),
        "repeats_per_sample": repeats,
        "samples": len(per_call),
        "sweep_seconds": best,
        "sweep_gcups": gcups(cells, best),
        "sample_spread": (max(per_call) - best) / best,
    }


def _bench_search_lanes(quick: bool) -> dict:
    """The compiled classic lanes on the ``search-pool`` database's shape.

    One 400 bp query against the largest bucket of an 800-sequence
    database (150-600 bp, classic packing) and against a 10-lane block of
    it, the narrow shape the search pool's seed prefix packs.  Each scan
    builds its :class:`MultiSequenceWorkspace` (profile included), as a
    search does.  Scores are asserted equal to the numpy lanes' first.
    Each of the five samples repeats the scan for at least 0.2 s;
    ``*_sample_spread`` is ``(slowest - fastest) / fastest`` over the samples.
    """
    from ..core.multi_engine import MultiSequenceWorkspace, NumpyMultiWorkspace

    rng = np.random.default_rng(83)
    db = synthetic_database(n=200 if quick else 800, min_length=150, max_length=600, rng=rng)
    query = random_dna(400, rng)
    bucket = max(pack_database(db).buckets, key=lambda b: b.codes.shape[0])
    blocks = {
        "narrow": (bucket.codes[:10], bucket.lengths[:10]),
        "bucket": (bucket.codes, bucket.lengths),
    }
    entry: dict = {
        "kernel": "classic",
        "dtype": "int16",
        "lane_mode": "chunked",
        "query_bp": len(query),
    }
    for name, (codes, lengths) in blocks.items():
        want = NumpyMultiWorkspace(codes, lengths).sw_best_scores(query)
        if not np.array_equal(MultiSequenceWorkspace(codes, lengths).sw_best_scores(query), want):
            raise AssertionError(f"compiled {name} lanes diverged from the numpy lanes")
        repeats, per_call = _long_samples(
            lambda: MultiSequenceWorkspace(codes, lengths).sw_best_scores(query),
            1 if quick else 5,
            0.0 if quick else 0.2,
        )
        best = min(per_call)
        cells = len(query) * int(lengths.sum())
        entry[f"{name}_lanes"] = len(lengths)
        entry[f"{name}_cells"] = cells
        entry[f"{name}_repeats_per_sample"] = repeats
        entry[f"{name}_seconds"] = best
        entry[f"{name}_gcups"] = gcups(cells, best)
        entry[f"{name}_sample_spread"] = (max(per_call) - best) / best
    entry["samples"] = len(per_call)
    return entry


#: The suite in run order: ``(entry name, progress note, bench)``.  Each
#: bench takes ``(quick, rounds, results so far)``.
ENTRIES = (
    ("sw_scan_4096x4096", "sw_scan: naive / vectorized / workspace",
     lambda quick, rounds, _: _bench_pair_scan(quick, rounds)),
    ("sw_rows_batched_512x4096", "sw_rows: batched block",
     lambda quick, _, __: _bench_batched_rows(quick)),
    ("tile_500x500", "tile: compiled vs numpy rows",
     lambda quick, _, __: _bench_tile(quick)),
    ("phase1_blocked_4kbp", "phase 1: inline blocked 8x8, DP + detection",
     lambda quick, _, __: _bench_phase1_blocked(quick)),
    ("db_search_1000seq_2kbp_query", "db_search: classic batched",
     lambda quick, rounds, _: _bench_db_search(quick, rounds)),
    ("db_search_striped_1000seq_2kbp_query", "db_search: striped",
     lambda quick, rounds, results: _bench_db_search_striped(
         quick, rounds,
         results.get("db_search_1000seq_2kbp_query", {}).get("batched_gcups", 0.0),
     )),
    ("db_search_pruned_5000seq_1500bp_query", "db_search: pruning + result cache",
     lambda quick, rounds, _: _bench_db_search_pruned(quick, rounds)),
    ("pool_wavefront_10_repeats_600x600", "pool wavefront: 10 repeats",
     lambda quick, rounds, _: _bench_pool_wavefront(quick, rounds)),
    ("fasta_ingest_1500seq", "fasta ingest: parse, pack, index",
     lambda quick, _, __: _bench_fasta_ingest(quick)),
    ("bound_sweep_800seq", "bound sweep: index warm",
     lambda quick, _, __: _bench_bound_sweep(quick)),
    ("search_lanes_800seq_400bp_query", "search lanes: narrow block + bucket",
     lambda quick, _, __: _bench_search_lanes(quick)),
)


def run_kernel_bench(
    quick: bool = False, progress=None, only=None, base: dict | None = None
) -> dict:
    """Run the suite; returns the BENCH_kernels.json payload.

    ``only`` (entry names) runs just those entries and merges them into a
    copy of ``base`` (a payload loaded from the file), leaving every other
    entry, ``_machine`` included, as it was.
    """
    rounds = 1 if quick else 3
    if only is not None:
        unknown = sorted(set(only) - {name for name, _, _ in ENTRIES})
        if unknown:
            raise ValueError(f"unknown bench entries: {', '.join(unknown)}")
        results = dict(base or {})
    else:
        results = {"_machine": _machine(quick)}
    for name, label, bench in ENTRIES:
        if only is not None and name not in only:
            continue
        if progress is not None:
            progress(f"{label} ...")
        results[name] = bench(quick, rounds, results)
    return results


def write_bench(results: dict, path: str) -> None:
    """Write the payload as sorted, indented JSON (stable diffs)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")


def record_bench(results: dict) -> dict | None:
    """Append this suite run to the active run ledger (no-op when inactive).

    The flattened ``{entry}.{metric}`` rate keys match what
    :func:`repro.obs.ledger.entry_from_bench` derives from a committed
    ``BENCH_kernels.json``, so ``obs diff`` compares a fresh run against
    the baseline file directly.
    """
    from ..obs.ledger import bench_rates, record_run

    return record_run(
        "bench-kernels", bench_rates(results), config=results.get("_machine")
    )

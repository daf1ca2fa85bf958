"""End-to-end benchmark of ``repro`` search and align, with a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-pool --seed 1 --seconds 21 --trace 0

``--trace 0`` serves the workload's requests with observability off and
prints the end-to-end metrics; ``--trace 1`` replays the same requests,
each once untraced and once traced, and prints the per-layer
metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a human-readable report plus one ``detail`` JSON line.  See README.md.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, inside the checkout and ignored by git.
WORK_ROOT = ROOT / ".bench_build"

#: Environment switches that add work to every request; timed runs keep
#: them off whatever the caller's environment says.
PROGRAM_SWITCHES = ("REPRO_LEDGER", "REPRO_SANITIZE", "REPRO_VERIFY_PLANS")

#: Cold starts (fresh-interpreter import plus ingest / pool spawn) made
#: before each pass.  Like a request, each of these slots is timed once per
#: pass and counts its fastest try; setup_s is the median over the slots.
SETUP_SLOTS = 5
#: Repetitions of the host reference loop; host.calib_s is their median.
CALIB_REPEATS = 5
#: Each request is served this many times, in passes over the whole
#: sequence; its latency is the fastest serving.  Each vCPU of the reference
#: host turns about 1.4x slower for seconds at a time, and the fastest of
#: spaced servings filters most of that out (README.md, "Host noise").
PASSES = 3
#: A tail percentile needs at least this many requests beyond it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "gcups_effective": "GCUPS",
    "peak_rss_mb": "MB",
    "correct_ratio": "ratio",
}

LAYER_UNITS = {
    "import.repro_s": "s",
    "seq.parse_s": "s",
    "seq.pack_s": "s",
    "seq.repack_s": "s",
    "prefilter.bound_s": "s",
    "prefilter.pruned_ratio": "ratio",
    "prefilter.cells_skipped": "count",
    "plan.build_s": "s",
    "plan.tiles": "count",
    "pool.jobs": "count",
    "pool.publish_bytes": "B",
    "pool.coord_s": "s",
    "pool.worker_busy_s": "s",
    "pool.worker_wait_s": "s",
    "pool.utilization": "ratio",
    "dp.kernel_s": "s",
    "dp.cells": "count",
    "dp.kernel_gcups": "GCUPS",
    "dp.striped_recomputes": "count",
    "align.phase1_s": "s",
    "align.phase2_s": "s",
    "align.regions": "count",
    "unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


# -- measurements that need no program code ---------------------------------


def fresh_import_seconds() -> float:
    """Wall time of ``import repro.cli`` in a fresh, isolated interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t0 = time.perf_counter()\n"
        "import repro.cli\n"
        "print(time.perf_counter() - t0)\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def host_calibration() -> float:
    """A fixed pure-Python plus numpy loop; drifts with the host, not the code."""
    import numpy as np

    data = np.random.default_rng(0).random(200_000)
    times = []
    for _ in range(CALIB_REPEATS):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        for _ in range(10):
            np.sort(data)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def vm_hwm_kb(pid: int | str) -> int:
    """High-water resident set size of a process, in kB (Linux)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def stop_children() -> None:
    """Stop and reap every process the run started, before it exits.

    Pool workers are joined by ``pool.close()``; what remains is the
    multiprocessing resource tracker, which the first shared-memory segment
    starts and which would otherwise outlive the benchmark by a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def tail_index(n: int) -> int:
    """Rank of the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Falls back to the median when a run is too short to have one.
    """
    if n >= 2 * (TAIL_BEYOND + 1):
        return n - TAIL_BEYOND - 1
    return n // 2


# -- one run -------------------------------------------------------------------


def cold_starts(workload, prep) -> tuple[list[float], list[float]]:
    """``SETUP_SLOTS`` timed cold starts, each torn down at once.

    Returns each one's total (import plus set-up) and its import alone.
    """
    totals, imports = [], []
    for _ in range(SETUP_SLOTS):
        imported = fresh_import_seconds()
        t0 = perf_counter()
        state = workload.setup(prep)
        totals.append(imported + perf_counter() - t0)
        imports.append(imported)
        workload.teardown(state)
    return totals, imports


def serve(workload, state, prep, req):
    """One request; returns ``(seconds, result or None)``."""
    t0 = perf_counter()
    try:
        result = workload.request(state, prep, req)
    except Exception as exc:  # a failed request is a measured outcome
        print(f"request failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        result = None
    return perf_counter() - t0, result


def check_outputs(workload, prep, servings, seed) -> list[bool]:
    """Pass/fail per serving ``(request index, result)``.

    Every output gets the workload's cheap check and must repeat the first
    serving of its request exactly; outputs of the sampled requests must
    also equal a reference run's, computed once per request.
    """
    sampled = set(workload.sample(prep, seed))
    expected: dict[int, object] = {}
    passed = []
    for i, result in servings:
        req = prep.requests[i]
        ok = result is not None and workload.check(prep, req, result)
        if ok:
            if i not in expected:
                expected[i] = (
                    workload.reference_key(prep, req)
                    if i in sampled
                    else workload.result_key(result)
                )
            ok = workload.result_key(result) == expected[i]
        passed.append(ok)
    return passed


def peak_rss_mb(state) -> float:
    """Coordinator plus pool workers, summed high-water marks."""
    import multiprocessing

    total = vm_hwm_kb("self")
    if getattr(state, "pool", None) is not None:
        total += sum(vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
    return total / 1024.0


def timed_run(workload, prep, seed) -> tuple[dict, dict, list[bool]]:
    fresh_import_seconds()  # untimed: compiles bytecode in a fresh checkout
    state = workload.setup(prep)
    n = len(prep.requests)
    best = [math.inf] * n
    setup_best = [math.inf] * SETUP_SLOTS
    servings = []
    try:
        for req in prep.warmup:
            serve(workload, state, prep, req)
        calib = host_calibration()
        for _ in range(PASSES):
            totals, _ = cold_starts(workload, prep)
            setup_best = [min(a, b) for a, b in zip(setup_best, totals)]
            for i, req in enumerate(prep.requests):
                seconds, result = serve(workload, state, prep, req)
                best[i] = min(best[i], seconds)
                servings.append((i, result))
        rss = peak_rss_mb(state)
    finally:
        workload.teardown(state)
    passed = check_outputs(workload, prep, servings, seed)
    cells = {
        i: workload.cells(prep.requests[i], result)
        for (i, result), ok in zip(servings, passed)
        if ok
    }
    ordered = sorted(best)
    rank = tail_index(n)
    metrics = {
        "setup_s": statistics.median(setup_best),
        "latency_p50_s": statistics.median(best),
        "latency_tail_s": ordered[rank],
        "gcups_effective": sum(cells.values()) / sum(best) / 1e9,
        "peak_rss_mb": rss,
        "correct_ratio": sum(passed) / len(passed),
    }
    detail = {
        "host.calib_s": calib,
        "tail_percentile": 100.0 * (rank + 1) / n,
        "requests": n,
        "passes": PASSES,
        "timed_wall_s": sum(best),
    }
    return metrics, detail, passed


def traced_run(workload, prep, seed) -> tuple[dict, dict, list[bool]]:
    from repro import obs

    recorder = layers.Recorder()
    layers.install(recorder)  # before any pool forks
    try:
        fresh_import_seconds()  # untimed: compiles bytecode in a fresh checkout
        _, imports = cold_starts(workload, prep)
        state = workload.setup(prep)
        try:
            for req in prep.warmup:
                serve(workload, state, prep, req)
            calib = host_calibration()
            plain, traced, results = [], [], []
            counters: dict[str, float] = {}
            extras: dict[str, float] = {}
            for req in prep.requests:
                # A copy, so the pool republishes the pair for the traced
                # replay as it would for any new request.
                plain.append(serve(workload, state, prep, copy.deepcopy(req))[0])
                with obs.observed() as (_, registry):
                    recorder.enabled = True
                    try:
                        with recorder.span("request"):
                            seconds, result = serve(workload, state, prep, req)
                    finally:
                        recorder.enabled = False
                traced.append(seconds)
                results.append(result)
                for name, value in registry.snapshot()["counters"].items():
                    counters[name] = counters.get(name, 0) + value
                if result is not None:
                    for name, value in workload.extras(result).items():
                        extras[name] = extras.get(name, 0) + value
        finally:
            workload.teardown(state)
    finally:
        recorder.restore()
    passed = check_outputs(workload, prep, list(enumerate(results)), seed)
    metrics, accounting = layer_metrics(recorder, counters, extras, len(traced))
    metrics["import.repro_s"] = statistics.median(imports)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    detail = {"host.calib_s": calib, "requests": len(traced), **accounting}
    return metrics, detail, passed


def layer_metrics(rec, counters, extras, n) -> tuple[dict, dict]:
    """Per-request means of every layer quantity, plus the accounting."""

    def per(value: float) -> float:
        return value / n

    own = rec.self_s
    kernel_s = rec.counts["pool.worker_busy_s"] + own["dp.kernel"] - rec.moved_s["dp.kernel"]
    cells = counters.get("cells_computed", 0)
    sequences = extras.get("prefilter.sequences", 0)
    slots = rec.counts["pool.worker_slots_s"]
    metrics = {
        "seq.parse_s": per(own["seq.parse"]),
        "seq.pack_s": per(own["seq.pack"]),
        "seq.repack_s": per(own["seq.repack"]),
        "prefilter.bound_s": per(own["prefilter.bound"]),
        "prefilter.pruned_ratio": extras.get("prefilter.pruned", 0) / sequences if sequences else 0.0,
        "prefilter.cells_skipped": per(extras.get("prefilter.cells_skipped", 0)),
        "plan.build_s": per(own["plan.build"]),
        "plan.tiles": per(rec.counts["plan.tiles"]),
        "pool.jobs": per(rec.counts["pool.jobs"]),
        "pool.publish_bytes": per(counters.get("arena_bytes_published", 0)),
        "pool.coord_s": per(own["pool.coord"]),
        "pool.worker_busy_s": per(rec.counts["pool.worker_busy_s"]),
        "pool.worker_wait_s": per(counters.get("worker_wait_seconds", 0)),
        "pool.utilization": rec.counts["pool.worker_busy_s"] / slots if slots else 0.0,
        "dp.kernel_s": per(own["dp.kernel"]),
        "dp.cells": per(cells),
        "dp.kernel_gcups": cells / kernel_s / 1e9 if kernel_s > 0 else 0.0,
        "dp.striped_recomputes": per(counters.get("striped_recomputes", 0)),
        "align.phase1_s": per(extras.get("align.phase1_s", 0)),
        "align.phase2_s": per(extras.get("align.phase2_s", 0)),
        "align.regions": per(extras.get("align.regions", 0)),
        "unattributed_s": per(own["request"]),
    }
    layer_sum = sum(per(own[layer]) for layer in layers.SELF_LAYERS)
    accounting = {
        "request_wall_s": per(rec.root_s),
        "layers_plus_unattributed_s": layer_sum + metrics["unattributed_s"],
    }
    return metrics, accounting


# -- entry point ---------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="input sizes; 'smoke' is the tiny size the benchmark's own tests use",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    for name in PROGRAM_SWITCHES:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        return run_and_report(args, workload)
    finally:
        stop_children()


def run_and_report(args, workload) -> int:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=WORK_ROOT)
    tempfile.tempdir = workdir  # pool telemetry segments stay in the checkout
    shm_before = shm_segments()
    try:
        prep = workload.prepare(
            args.seed, args.size, workload.request_count(args.seconds / PASSES), workdir
        )
        run = traced_run if args.trace else timed_run
        metrics, detail, passed = run(workload, prep, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Before stop_children(): the resource tracker unlinks what it still holds.
    leaked = sorted(shm_segments() - shm_before)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    detail.update(workload=args.workload, seed=args.seed, leaked_shm=leaked)
    for name, unit in units.items():
        print(f"{args.workload:13s} {name:26s} {metrics[name]:14.6g} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    failed = len(passed) - sum(passed)
    print(
        json.dumps(
            {
                "correct": failed == 0 and not leaked,
                "attempted": len(passed),
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

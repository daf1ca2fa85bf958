"""Real shared-memory implementation of the non-blocked wave-front.

Strategy 1 (Section 4.2) on actual OS processes: each worker owns N/P
columns, the two DP rows' border values travel through a shared-memory
array, and the per-row handshake is a pair of semaphores per edge -- one
counting "values produced", one counting "values consumed" (the paper's
read-acknowledge, which lets the producer stay exactly one row ahead,
matching the one-slot border buffer of the DSM version).

The schedule and the kernel-driving code both come from :mod:`repro.plan`:
the worker walks its tiles of the wave-front task graph and executes each
one through the shared :class:`~repro.plan.WavefrontRuntime`; only the
semaphore handshake around each tile is this backend's own.

Row-by-row semaphore round trips make this backend deliberately
communication-heavy -- it *is* the strategy whose overheads Table 1
documents -- so a ``rows_per_exchange`` knob (the blocking factor in
embryo) is exposed; tests show batching exchanges speeds it up, which is
Section 4.3's whole point re-enacted on real hardware.
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
import tempfile
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..check.sanitizer import get_sanitizer
from ..core.alignment import LocalAlignment
from ..core.kernels import SCORE_DTYPE
from ..core.scoring import DEFAULT_SCORING, Scoring
from ..obs import get_metrics, get_tracer, is_enabled
from ..obs.collect import ObsJob, merge_into, observed_worker
from ..plan import cached_plan, finalize_plan, make_runtime, state_shape, wavefront_spec
from .guard import drain_results
from .shm import attach_shared_array, create_shared_array


@dataclass(frozen=True)
class MpWavefrontConfig:
    """Parameters of the real-parallel wave-front run."""

    n_workers: int = 2
    rows_per_exchange: int = 1  # 1 = the paper's strategy 1; >1 = blocking
    threshold: int = 35
    min_score: int | None = None
    timeout: float = 300.0
    kernel: str = "classic"

    def __post_init__(self) -> None:
        if self.n_workers <= 0 or self.rows_per_exchange <= 0:
            raise ValueError("workers and rows_per_exchange must be positive")

    def spec(self):
        """The plan spec this config describes (one graph per (rows, cols))."""
        return wavefront_spec(
            n_procs=self.n_workers,
            group_rows=self.rows_per_exchange,
            threshold=self.threshold,
            min_score=self.min_score,
            kernel=self.kernel,
        )


def _worker(
    worker_id: int,
    s_bytes: bytes,
    t_bytes: bytes,
    config: MpWavefrontConfig,
    scoring: Scoring,
    shm_name: str,
    shape: tuple[int, int],
    produced: list,
    consumed: list,
    results: "mp.Queue",
    obs: ObsJob | None = None,
) -> None:
    s = np.frombuffer(s_bytes, dtype=np.uint8)
    t = np.frombuffer(t_bytes, dtype=np.uint8)
    graph = cached_plan(config.spec(), len(s), len(t))
    with observed_worker(obs, f"worker-{worker_id}") as (tracer, metrics), attach_shared_array(
        shm_name, shape, SCORE_DTYPE
    ) as borders:
        runtime = make_runtime(graph, s, t, scoring, state=borders.array)
        tracing = tracer.enabled
        wait_s = busy_s = 0.0
        cells = 0
        last = worker_id == config.n_workers - 1
        for tile in graph.tiles_of(worker_id):
            lo, hi, _c0, _c1 = tile.payload
            if worker_id > 0:
                t0 = perf_counter() if tracing else 0.0
                if not produced[worker_id - 1].acquire(timeout=config.timeout):
                    raise TimeoutError(f"worker {worker_id} starved at row {lo}")
                san = get_sanitizer()
                if san is not None:
                    san.on_wait(f"produced[{worker_id - 1}]")
                if tracing:
                    waited = perf_counter() - t0
                    wait_s += waited
                    tracer.record("border_wait", "communication", t0, waited, row=lo)
            t0 = perf_counter() if tracing else 0.0
            runtime.run_tile(tile)
            if not runtime.ENGINE_COUNTS_CELLS:
                cells += tile.cells
            if tracing:
                spent = perf_counter() - t0
                busy_s += spent
                tracer.record("rows", "computation", t0, spent, lo=lo, hi=hi)
            if worker_id > 0:
                consumed[worker_id - 1].release()  # read-acknowledge
                san = get_sanitizer()
                if san is not None:
                    san.on_post(f"consumed[{worker_id - 1}]")
            if not last:
                if lo > 0 and not consumed[worker_id].acquire(
                    timeout=config.timeout
                ):
                    raise TimeoutError(
                        f"worker {worker_id} never got its ack at row {lo}"
                    )
                produced[worker_id].release()
        if tracing:
            metrics.counter("cells_computed").inc(cells)
            metrics.counter("worker_busy_seconds").inc(busy_s)
            metrics.counter("worker_wait_seconds").inc(wait_s)
        results.put((worker_id, runtime.emit(worker_id)))


def mp_wavefront_alignments(
    s: np.ndarray,
    t: np.ndarray,
    config: MpWavefrontConfig | None = None,
    scoring: Scoring = DEFAULT_SCORING,
) -> list[LocalAlignment]:
    """Run strategy 1 with real worker processes; returns the merged queue."""
    config = config or MpWavefrontConfig()
    from ..seq.alphabet import encode

    s = encode(s)
    t = encode(t)
    if len(t) < config.n_workers:
        raise ValueError("sequence narrower than the worker count")
    graph = cached_plan(config.spec(), len(s), len(t))
    ctx = mp.get_context()
    obs_dir: str | None = None
    obs: ObsJob | None = None
    # Segments also flow when only the sanitizer is on (they carry its events).
    if is_enabled() or get_sanitizer() is not None:
        obs_dir = tempfile.mkdtemp(prefix="repro-obs-")
        obs = ObsJob(obs_dir, "wavefront", perf_counter())
    # borders[w, i] = last cell of worker w's slice on row i
    produced = [ctx.Semaphore(0) for _ in range(max(0, config.n_workers - 1))]
    consumed = [ctx.Semaphore(0) for _ in range(max(0, config.n_workers - 1))]
    results: mp.Queue = ctx.Queue()
    with create_shared_array(state_shape(graph), SCORE_DTYPE) as borders:
        workers = [
            ctx.Process(
                target=_worker,
                args=(
                    w,
                    s.tobytes(),
                    t.tobytes(),
                    config,
                    scoring,
                    borders.name,
                    borders.array.shape,
                    produced,
                    consumed,
                    results,
                    obs,
                ),
            )
            for w in range(config.n_workers)
        ]
        try:
            with get_tracer().span("mp_wavefront", "coordination", n_workers=config.n_workers):
                for w in workers:
                    w.start()
                # Poll with exit-code checks: a crashed worker fails the call
                # in under a second instead of hanging until the full timeout
                # while its named shared-memory segment leaks.
                collected = drain_results(
                    results, workers, config.n_workers, config.timeout
                )
                for w in workers:
                    w.join(timeout=config.timeout)
        finally:
            for w in workers:
                if w.is_alive():
                    w.terminate()
                    w.join(timeout=5.0)
            if obs is not None:
                merge_into(get_tracer(), get_metrics(), obs.dir, obs.key)
                shutil.rmtree(obs_dir, ignore_errors=True)

    parts = [collected[w] for w in sorted(collected)]
    return finalize_plan(graph, parts).alignments

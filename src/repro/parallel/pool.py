"""Persistent shared-memory worker pool for repeated alignments.

Spawning worker processes and pickling the sequences on *every* call would
be fine for a single 400 kBP comparison and ruinous for a serving scenario
where the same genome pair (or a stream of pairs) is aligned over and over.
:class:`AlignmentWorkerPool` is the program's one real-parallel backend and
keeps ``n_workers`` processes alive across requests:

* Sequences are published once per pair through a
  :class:`repro.parallel.shm.SequenceArena`; workers attach by name and slice
  zero-copy views, so a request carries only a small job descriptor.
* Every statically-partitioned job speaks one *generic task protocol*
  (:func:`_job_plan`): the job ships a
  :class:`repro.plan.PlanSpec`, each worker rebuilds the identical
  :class:`repro.plan.TaskGraph` via :func:`repro.plan.cached_plan`, runs its
  own tiles in id order and gates every cross-worker dependency on a shared
  *done-flag* array indexed by tile id.  Shared flags (not
  semaphores/events) because synchronisation primitives can only be
  inherited at fork time while shm segments can be attached by name at any
  moment -- exactly what a long-lived pool serving arbitrary job shapes
  needs.
* Worker death is detected while collecting results (exit-code polling in
  :meth:`AlignmentWorkerPool._collect`), so a crashed worker fails the
  request in well under a second instead of hanging for the full timeout.

The pool speaks two job protocols.  The static ``plan`` job serves every
plan kind with a spec -- the non-blocked wave-front (Section 4.2), the
blocked wave-front (Section 4.3), the pre_process scoreboard (Section 5)
and the phase-2 scattered mapping (Section 4.4).  The ``search`` job
(:meth:`AlignmentWorkerPool.run_search_plan`) replaces the static per-role
partition with a *dynamic* work queue: the packed database is published
once through the arena, each length-bucket tile of the search graph goes
on a shared queue, and workers pull the next tile whenever they finish one
(greedy self-scheduling), so a skewed bucket cannot stall the rest of the
pool.
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
import tempfile
import time
from contextlib import nullcontext
from time import perf_counter
from typing import Sequence

import numpy as np

from ..check.sanitizer import get_sanitizer
from ..core.alignment import LocalAlignment
from ..core.global_align import SubsequenceAlignment
from ..core.kernels import SCORE_DTYPE
from ..core.scoring import DEFAULT_SCORING, Scoring
from ..obs import gcups, get_metrics, get_tracer, is_enabled
from ..obs.collect import ObsJob, discard_segments, merge_into, observed_worker
from ..plan import (
    ExecutionResult,
    PlanSpec,
    SearchRuntime,
    TaskGraph,
    cached_plan,
    finalize_plan,
    make_runtime,
    maybe_verify,
    phase2_spec,
    state_shape,
)
from ..plan.runtime import check_search_inputs
from ..seq.alphabet import encode
from .guard import WorkerCrashed, poll_until
from .shm import ArenaHandle, SequenceArena, attach_arena, attach_shared_array, create_shared_array

#: End-of-stream marker of every pool queue.  ``None`` by value (needs no
#: shared state to compare against); always spelled ``SENTINEL`` so the
#: shutdown handshake is explicit at every get/put site.
SENTINEL = None


class PoolJobError(RuntimeError):
    """A pool worker raised while executing a job (the pool itself is fine)."""


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

#: Spans that split a traced pool job's fixed cost, all "coordination":
#: ``job_receipt`` (the coordinator's submit to the worker's pickup: job
#: pickling, the task queue, unpickling) and, on the coordinator,
#: ``result_put`` (the worker's put to the coordinator's get: pickling, the
#: result queue and its poll wake-up) for every job; for plan jobs also
#: ``arena_attach`` (pair arena, plan cache, shared state and done flags),
#: ``make_runtime``, ``first_tile`` (ready to the end of the worker's first
#: tile, its waits included), ``last_tile`` (the start of the last tile's
#: waits to its end) and ``emit``.
JOB_SPANS = (
    "job_receipt", "arena_attach", "make_runtime", "first_tile", "last_tile", "emit", "result_put",
)


def _close_arenas(arenas: dict) -> None:
    """Close every cached arena attachment, dropping its views first.

    Shared by the stale-pair eviction in :func:`_get_pair` and the worker
    exit path.  The numpy views are released before ``close`` so no exported
    buffer outlives the mapping, and failures are swallowed: this runs in
    ``finally`` blocks where a raise would mask the real error.
    """
    san = get_sanitizer()
    for name in list(arenas):
        shm, *views = arenas.pop(name)
        del views
        try:
            shm.close()
        except (BufferError, OSError):
            continue
        if san is not None:
            san.on_close(name, "arena", False)


def _get_pair(arenas: dict, handle: ArenaHandle) -> tuple[np.ndarray, np.ndarray]:
    """Attach (and cache) the arena named by ``handle``; evict stale pairs."""
    cached = arenas.get(handle.name)
    if cached is None:
        _close_arenas(arenas)
        arenas[handle.name] = attach_arena(handle)
        cached = arenas[handle.name]
    return cached[1], cached[2]


def _state_array(graph: TaskGraph, name: str | None = None):
    """The plan's shared state array: created (no ``name``) or attached, or
    a null context for kinds without cross-owner state."""
    shape = state_shape(graph)
    if shape is None:
        return nullcontext()
    if name is None:
        return create_shared_array(shape, SCORE_DTYPE)
    return attach_shared_array(name, shape, SCORE_DTYPE)


def _job_plan(role: int, job: dict, arenas: dict) -> list:
    """Generic ready-set execution of one planned job (any static kind).

    The worker rebuilds the task graph from the job's spec (cached across
    requests on the same pair), attaches the shared cross-owner state array
    (if the kind has one) plus the shared per-tile done-flag array, and
    walks its own tiles in id order.  A tile may run once every dependency's
    flag is up: same-owner dependencies are satisfied by program order,
    cross-owner ones are polled under the job timeout so a stuck neighbour
    surfaces as a descriptive error instead of a hang.  The kernels count
    their own cells.
    """
    # Telemetry is tile-grained: with the tracer disabled each tile pays
    # three branch checks, keeping the hot per-row path untouched.  The
    # job's fixed cost is split by the JOB_SPANS, stamped only when tracing.
    tracer = get_tracer()
    tracing = tracer.enabled
    t_job = perf_counter() if tracing else 0.0
    s, t = _get_pair(arenas, job["arena"])
    graph = cached_plan(job["spec"], len(s), len(t))
    timeout: float = job["timeout"]
    scoring: Scoring = job["scoring"]
    with _state_array(graph, job["state"]) as state, attach_shared_array(
        job["done"], (len(graph.tiles),), np.int64
    ) as done:
        if tracing:
            t_attached = perf_counter()
            tracer.record("arena_attach", "coordination", t_job, t_attached - t_job)
        runtime = make_runtime(
            graph, s, t, scoring, state=None if state is None else state.array
        )
        done_flags = done.array
        tiles = graph.tiles
        if tracing:
            t_ready = perf_counter()
            tracer.record("make_runtime", "coordination", t_attached, t_ready - t_attached)
        wait_s = busy_s = 0.0
        mine = graph.tiles_of(role)
        t_tile = first_done = 0.0  # the latest tile's start, the first's end
        for tile in mine:
            if tracing:
                t_tile = perf_counter()
            for dep in tile.deps:
                if tiles[dep].owner == role:
                    continue  # program order: own tiles run in id order
                t0 = perf_counter() if tracing else 0.0
                poll_until(
                    lambda d=dep: int(done_flags[d]) == 1,
                    timeout,
                    f"plan worker {role} starved at tile {tile.id} (dep {dep})",
                )
                san = get_sanitizer()
                if san is not None:
                    san.on_wait(f"done[{dep}]")
                if tracing:
                    waited = perf_counter() - t0
                    wait_s += waited
                    tracer.record(
                        "tile_wait", "communication", t0, waited, tile=tile.id, dep=dep
                    )
            t0 = perf_counter() if tracing else 0.0
            runtime.run_tile(tile)
            done_flags[tile.id] = 1
            if tracing:
                spent = perf_counter() - t0
                busy_s += spent
                tracer.record(
                    runtime.SPAN_NAME,
                    "computation",
                    t0,
                    spent,
                    **runtime.tile_args(tile),
                )
                first_done = first_done or t0 + spent
        if tracing:
            t_done = perf_counter()
            if mine:
                tracer.record(
                    "first_tile", "coordination", t_ready, first_done - t_ready, tile=mine[0].id
                )
                tracer.record(
                    "last_tile", "coordination", t_tile, t_done - t_tile, tile=mine[-1].id
                )
            metrics = get_metrics()
            metrics.counter("worker_busy_seconds").inc(busy_s)
            metrics.counter("worker_wait_seconds").inc(wait_s)
        emitted = runtime.emit(role)
        if tracing:
            tracer.record("emit", "coordination", t_done, perf_counter() - t_done)
        return emitted


def _job_search(role: int, job: dict, arenas: dict, work) -> dict:
    """Dynamic-dispatch database search: pull graph tiles until SENTINEL.

    The worker attaches the job's arena (``s`` slot the query, ``t`` the
    flat bucket blob, see :func:`repro.plan.search_blob`) and pulls tiles
    off the pool's one work queue, self-scheduling greedily with every other
    worker.  Its :class:`~repro.plan.SearchRuntime` keeps a local top-k
    (deterministic total order, so the coordinator's merge is
    interleaving-independent) and stops at the first SENTINEL -- exactly
    one per worker is enqueued behind the job's tiles.
    """
    q, blob = _get_pair(arenas, job["arena"])
    runtime = SearchRuntime(q, blob, job["scoring"], job["top_k"], kernel=job["kernel"])
    tracer = get_tracer()
    tracing = tracer.enabled
    busy_s = 0.0
    chunks_done = 0
    queue_depth = 0
    while True:
        tile = work.get()
        if tile is SENTINEL:
            break
        if tracing:
            try:
                queue_depth = max(queue_depth, work.qsize())
            except NotImplementedError:  # qsize is unimplemented on macOS
                pass
        t0 = perf_counter()
        runtime.run_tile(tile)
        chunks_done += 1
        if tracing:
            spent = perf_counter() - t0
            busy_s += spent
            tracer.record(
                "search_chunk",
                "computation",
                t0,
                spent,
                lanes=tile.payload[2],
                width=tile.payload[1],
                **runtime.tile_args(tile),
            )
    if tracing:
        metrics = get_metrics()
        metrics.counter("search_chunks").inc(chunks_done)
        metrics.counter("worker_busy_seconds").inc(busy_s)
        metrics.gauge("search_queue_depth").set(queue_depth)
        if busy_s > 0.0:
            metrics.gauge(f"search_worker{role}_gcups").set(gcups(runtime.cells, busy_s))
    return runtime.emit(role)


def _pool_worker(role: int, tasks, results, work) -> None:
    arenas: dict = {}
    try:
        while True:
            job = tasks.get()
            if job is SENTINEL:
                break
            obs = job.get("obs")
            t_put = 0.0  # stamped when the job is observed: see result_put
            try:
                # observed_worker installs this job's tracer/registry (or
                # resets any state inherited over fork) and writes the
                # telemetry segment on the way out, error or not.
                with observed_worker(obs, f"worker-{role}") as (tracer, _):
                    if obs is not None:
                        t_recv = perf_counter()
                        tracer.record(
                            "job_receipt", "coordination", obs.t_submit, t_recv - obs.t_submit
                        )
                    if job["kind"] == "search":
                        payload = _job_search(role, job, arenas, work)
                    else:
                        payload = _job_plan(role, job, arenas)
                if obs is not None:
                    t_put = perf_counter()
                results.put((job["id"], role, "ok", payload, t_put))
            except Exception as exc:  # propagate, keep the worker alive
                results.put((job["id"], role, "error", f"{type(exc).__name__}: {exc}", t_put))
    finally:
        _close_arenas(arenas)


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------


class AlignmentWorkerPool:
    """A reusable pool of alignment workers with shared-memory sequences.

    >>> with AlignmentWorkerPool(n_workers=2) as pool:
    ...     pool.load_pair(s, t)                 # publish once
    ...     spec = wavefront_spec(n_procs=2)
    ...     regions = pool.run_plan(spec).alignments  # many requests, no respawn
    ...     records = pool.phase2(regions)

    Sequences may also be passed directly to :meth:`run_plan` /
    :meth:`phase2`; the pool republishes the arena only when the pair
    actually changes.
    """

    def __init__(self, n_workers: int = 2, timeout: float = 300.0) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = n_workers
        self.timeout = timeout
        ctx = mp.get_context()
        self._tasks = [ctx.Queue() for _ in range(n_workers)]
        self._results = ctx.Queue()
        # The dynamic work queue of search jobs.  Queues can only be
        # inherited at fork time, so it exists for the pool's whole life;
        # it is empty between jobs (drained even on failure).
        self._work = ctx.Queue()
        self._procs = [
            ctx.Process(
                target=_pool_worker,
                args=(w, self._tasks[w], self._results, self._work),
                daemon=True,
            )
            for w in range(n_workers)
        ]
        for p in self._procs:
            p.start()
        self._arena: SequenceArena | None = None
        self._loaded: tuple | None = None
        self._job_counter = 0
        self._closed = False
        self._obs_dir: str | None = None  # created lazily on the first traced job

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "AlignmentWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self, join_timeout: float = 5.0) -> None:
        """Shut the workers down and release every shared segment."""
        if self._closed:
            return
        self._closed = True
        for q in self._tasks:
            try:
                q.put(SENTINEL)
            except (ValueError, OSError):
                pass
        for p in self._procs:
            p.join(timeout=join_timeout)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        self._loaded = None
        if self._obs_dir is not None:
            shutil.rmtree(self._obs_dir, ignore_errors=True)
            self._obs_dir = None

    # -- sequence publication ----------------------------------------------

    def load_pair(self, s, t) -> ArenaHandle:
        """Publish an encoded sequence pair to all workers (replaces any prior)."""
        s = encode(s)
        t = encode(t)
        if self._arena is not None:
            self._arena.close()
        with get_tracer().span("shm_publish", "communication", bytes=int(s.size + t.size)):
            self._arena = SequenceArena(s, t)
        if is_enabled():
            get_metrics().counter("arena_bytes_published").inc(int(s.size + t.size))
        self._loaded = (s, t)
        return self._arena.handle

    def _ensure_pair(self, s, t) -> ArenaHandle:
        if s is None and t is None:
            if self._arena is None:
                raise ValueError("no sequence pair loaded; call load_pair first")
            return self._arena.handle
        if s is None or t is None:
            raise ValueError("pass both sequences or neither")
        s = encode(s)
        t = encode(t)
        if (
            self._loaded is not None
            and s is self._loaded[0]
            and t is self._loaded[1]
        ):
            return self._arena.handle  # type: ignore[union-attr]
        return self.load_pair(s, t)

    # -- job plumbing ------------------------------------------------------

    def _submit(self, job: dict, fail_fast: bool = True) -> dict[int, object]:
        if self._closed:
            raise RuntimeError("pool is closed")
        self._job_counter += 1
        job["id"] = self._job_counter
        tracer = get_tracer()
        obs: ObsJob | None = None
        # Segments also flow when only the sanitizer is on: they are the
        # channel worker lock/arena events travel back through.
        if tracer.enabled or get_sanitizer() is not None:
            if self._obs_dir is None:
                self._obs_dir = tempfile.mkdtemp(prefix="repro-obs-")
            obs = ObsJob(self._obs_dir, f"job{job['id']}", perf_counter())
            job["obs"] = obs
        with tracer.span(f"pool_job:{job['kind']}", "coordination", job=job["id"]):
            for q in self._tasks:
                q.put(job)
            collected = self._collect(job["id"], fail_fast=fail_fast)
        if obs is not None:
            # Fold every worker's segment (spans + metric snapshot) into the
            # coordinator's tracer/registry -- one coherent timeline per run.
            merge_into(tracer, get_metrics(), obs.dir, obs.key)
            discard_segments(obs.dir, obs.key)
        return collected

    def _collect(self, job_id: int, fail_fast: bool = True) -> dict[int, object]:
        import queue as _queue

        collected: dict[int, object] = {}
        errors: list[str] = []
        deadline = time.monotonic() + self.timeout
        while len(collected) + len(errors) < self.n_workers:
            try:
                jid, role, status, payload, t_put = self._results.get(timeout=0.2)
            except _queue.Empty:
                dead = [
                    (w, p.exitcode)
                    for w, p in enumerate(self._procs)
                    if p.exitcode is not None
                ]
                if dead:
                    self.close(join_timeout=0.1)
                    raise WorkerCrashed(
                        f"pool worker(s) {dead} died; the pool has been closed"
                    )
                if time.monotonic() > deadline:
                    raise TimeoutError(f"pool job {job_id} timed out")
                continue
            if jid != job_id:
                continue  # stale result from a previously failed job
            if t_put:
                # Put to here: pickling, the pipe and this loop's wake-up.
                get_tracer().record(
                    "result_put", "coordination", t_put, perf_counter() - t_put, worker=role
                )
            if status == "error":
                # fail_fast suits the statically-partitioned jobs; search
                # waits for every worker so the shared work queue is quiet
                # (and safe to drain) by the time the error propagates.
                if fail_fast:
                    raise PoolJobError(str(payload))
                errors.append(f"worker {role}: {payload}")
                continue
            collected[role] = payload
        if errors:
            raise PoolJobError("; ".join(errors))
        return collected

    # -- planned jobs -------------------------------------------------------

    def run_plan(
        self,
        spec: PlanSpec,
        s=None,
        t=None,
        *,
        scoring: Scoring = DEFAULT_SCORING,
        timeout: float | None = None,
    ) -> ExecutionResult:
        """Execute one planned job (any static plan kind) on the workers.

        The *spec* -- not the graph -- rides the job descriptor; every
        worker rebuilds the identical graph from ``(spec, rows, cols)`` via
        :func:`repro.plan.cached_plan` and runs its tiles under the generic
        done-flag protocol.  Returns the merged
        :class:`repro.plan.ExecutionResult`.
        """
        return self._run_static(spec, self._ensure_pair(s, t), scoring, timeout)

    def _run_static(
        self,
        spec: PlanSpec,
        handle: ArenaHandle,
        scoring: Scoring,
        timeout: float | None,
    ) -> ExecutionResult:
        """The ``plan`` job behind :meth:`run_plan` and :meth:`phase2`."""
        graph = cached_plan(spec, handle.s_len, handle.t_len)
        if graph.n_procs != self.n_workers:
            raise ValueError(
                f"plan wants {graph.n_procs} processors"
                f" but the pool has {self.n_workers} workers"
            )
        maybe_verify(graph, "pool")
        tracer = get_tracer()
        # run_mp_pipeline comes here directly (not through Executor.run),
        # so the pool stamps its own plan span; attribution deduplicates the
        # nested copy when a PoolExecutor wraps this call.
        span_args = graph.span_args(backend="pool") if tracer.enabled else {}
        # Nested `with` (not sequential creates + try/finally): if the second
        # allocation raises, the first segment is still unwound.
        with tracer.span(
            f"plan:{graph.kind}", "coordination", **span_args
        ), _state_array(graph) as state, create_shared_array(
            (len(graph.tiles),), np.int64
        ) as done:
            collected = self._submit(
                {
                    "kind": "plan",
                    "arena": handle,
                    "spec": spec,
                    "state": None if state is None else state.name,
                    "done": done.name,
                    "timeout": self.timeout if timeout is None else timeout,
                    "scoring": scoring,
                }
            )
        parts = [collected[role] for role in sorted(collected)]
        result = finalize_plan(graph, parts)
        result.backend = "pool"
        return result

    # -- alignment requests -------------------------------------------------

    def phase2(
        self,
        regions: Sequence[LocalAlignment],
        s=None,
        t=None,
        scoring: Scoring = DEFAULT_SCORING,
    ) -> list[SubsequenceAlignment]:
        """Section 4.4's scattered mapping on the persistent workers: the
        rendered records of :func:`repro.plan.plan_phase2`, in queue order."""
        handle = self._ensure_pair(s, t)
        if not regions:
            return []
        spec = phase2_spec(self.n_workers, regions)
        return self._run_static(spec, handle, scoring, None).extras["records"]

    # -- database search -----------------------------------------------------

    def run_search_plan(
        self,
        graph: TaskGraph,
        query: np.ndarray,
        blob: np.ndarray,
        *,
        scoring: Scoring = DEFAULT_SCORING,
    ) -> ExecutionResult:
        """Dynamic-dispatch execution of one search graph.

        Publishes the query plus the flat bucket blob through one arena,
        enqueues every tile on the work queue (then one SENTINEL per
        worker), and broadcasts the job; workers pull tiles greedily and
        return local top-k heaps, which :func:`repro.plan.finalize_plan`
        folds into one.  The deterministic total order makes the merged
        ranking interleaving-independent.
        """
        check_search_inputs(graph, query, blob)
        maybe_verify(graph, "pool")
        tracer = get_tracer()
        # The search graph has no rebuildable spec, so everything attribution
        # needs (tiles/cells/critical-path) rides this span's args directly.
        span_args = graph.span_args(backend="pool") if tracer.enabled else {}
        arena: SequenceArena | None = None
        with tracer.span(f"plan:{graph.kind}", "coordination", **span_args):
            try:
                # The arena is created inside the try so that *any* failure
                # after it exists -- the metrics block below included --
                # unwinds it.
                with tracer.span(
                    "shm_publish", "communication", bytes=int(query.size + blob.size)
                ):
                    arena = SequenceArena(query, blob)
                if is_enabled():
                    metrics = get_metrics()
                    metrics.counter("arena_bytes_published").inc(int(query.size + blob.size))
                    metrics.gauge("search_queue_chunks").set(len(graph.tiles))
                try:
                    for tile in graph.tiles:
                        self._work.put(tile)
                    for _ in range(self.n_workers):
                        self._work.put(SENTINEL)
                    collected = self._submit(
                        {
                            "kind": "search",
                            "arena": arena.handle,
                            "top_k": graph.params["top_k"],
                            "kernel": graph.params["kernel"],
                            "scoring": scoring,
                        },
                        fail_fast=False,
                    )
                except PoolJobError:
                    # Every worker has reported back (fail_fast=False), so
                    # nothing is still pulling: leftover tiles and the failed
                    # worker's sentinel can be drained without starving anyone.
                    self._drain_work()
                    raise
                except BaseException:
                    # Timeout/crash/interrupt: workers may be mid-pull, so the
                    # queue cannot be drained safely -- retire the pool.
                    self.close(join_timeout=1.0)
                    raise
            finally:
                if arena is not None:
                    arena.close()
        result = finalize_plan(graph, list(collected.values()))
        result.backend = "pool"
        return result

    def _drain_work(self) -> None:
        import queue as _queue

        while True:
            try:
                self._work.get(timeout=0.1)
            except (_queue.Empty, OSError, ValueError):
                break

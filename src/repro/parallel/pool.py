"""Persistent shared-memory worker pool for repeated alignments.

Spawning worker processes and pickling the sequences on *every* call would
be fine for a single 400 kBP comparison and ruinous for a serving scenario
where the same genome pair (or a stream of pairs) is aligned over and over.
:class:`AlignmentWorkerPool` is the program's one real-parallel backend and
keeps ``n_workers`` processes alive across requests:

* Sequences are published once per pair through a
  :class:`repro.parallel.shm.SequenceArena`; workers attach by name and slice
  zero-copy views, so a request carries only a small job descriptor,
  pickled once and unpickled by every worker.
* Every job speaks one *generic task protocol* (:func:`_job_plan`): the job
  ships a :class:`repro.plan.PlanSpec` (each worker rebuilds the identical
  :class:`repro.plan.TaskGraph` via :func:`repro.plan.cached_plan`) or, for
  a graph without one (search), the graph itself.  Each worker runs its own
  tiles in id order, gating every cross-worker dependency on a shared
  *done-flag* array indexed by tile id, then claims
  :data:`~repro.plan.DYNAMIC` tiles in id order from a *claim cursor*, one
  more int64 slot of the same per-job segment, read and advanced under one
  lock the pool creates before it forks.  Shared flags (not
  semaphores/events) because synchronisation primitives can only be
  inherited at fork time while shm segments can be attached by name at any
  moment -- exactly what a long-lived pool serving arbitrary job shapes
  needs; the one inherited lock guards a cursor that lives per job.
* Worker death is detected while collecting results (exit-code polling in
  :meth:`AlignmentWorkerPool._collect`), so a crashed worker fails the
  request in well under a second instead of hanging for the full timeout.

The job serves every plan kind: the non-blocked wave-front (Section 4.2),
the blocked wave-front (Section 4.3), the pre_process scoreboard
(Section 5), the phase-2 scattered mapping (Section 4.4) and the database
search (:meth:`AlignmentWorkerPool.run_search_plan`), whose graph is a set
of edge-free ``DYNAMIC`` bucket tiles over one arena.  Workers claim those
greedily (self-scheduling), so a skewed bucket cannot stall the rest of the
pool.  The cursor lives in the job's own segment, so a worker still
finishing a failed job cannot take tiles from the next one: every job fails
fast, and nothing is left over between jobs.

:meth:`AlignmentWorkerPool.run` has the executor signature
(:meth:`repro.plan.Executor.run`), so the pool runs any graph the align
pipeline (:func:`repro.strategies.run_pipeline`, both phases) or the search
hands it.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import shutil
import tempfile
import time
from contextlib import nullcontext
from itertools import chain
from time import perf_counter
from typing import Iterator, Sequence

import numpy as np

from ..check.sanitizer import get_sanitizer
from ..core.alignment import LocalAlignment
from ..core.global_align import SubsequenceAlignment
from ..core.kernels import SCORE_DTYPE
from ..core.scoring import DEFAULT_SCORING, Scoring
from ..obs import get_metrics, get_tracer, is_enabled
from ..obs.collect import ObsJob, discard_segments, merge_into, observed_worker
from ..plan import (
    DYNAMIC,
    ExecutionResult,
    PlanSpec,
    TaskGraph,
    Tile,
    cached_plan,
    finalize_plan,
    make_runtime,
    phase2_spec,
    plan_span,
    state_shape,
)
from ..plan.runtime import check_search_inputs
from ..seq.alphabet import encode
from .guard import WorkerCrashed, poll_until
from .shm import ArenaHandle, SequenceArena, attach_arena, attach_shared_array, create_shared_array

#: End-of-stream marker of the workers' task queues.  ``None`` by value
#: (needs no shared state to compare against); always spelled ``SENTINEL``
#: so the shutdown handshake is explicit at every get/put site.
SENTINEL = None


class PoolJobError(RuntimeError):
    """A pool worker raised while executing a job (the pool itself is fine)."""


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

#: Spans that split a traced pool job's fixed cost, all "coordination":
#: ``job_receipt`` (the coordinator's submit to the worker's pickup: the
#: job's one pickling, the task queue, this worker's unpickling),
#: ``arena_attach`` (pair arena, plan cache, shared state and done flags),
#: ``make_runtime``, ``first_tile``
#: (ready to the end of the worker's first tile, owned or claimed, its waits
#: included), ``last_tile`` (the start of the last tile's waits to the end
#: of the worker's tile loop, its last empty claim included) and ``emit``;
#: and, on the coordinator, ``result_put`` (the worker's put to the
#: coordinator's get: pickling, the result queue and its poll wake-up).  A
#: worker that ran no tile stamps neither ``first_tile`` nor ``last_tile``.
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


def _claims(tiles: list[Tile], cursor: np.ndarray, lock) -> Iterator[Tile]:
    """``DYNAMIC`` tiles claimed in id order from the job's shared cursor.

    Each claim reads and advances ``cursor[0]`` under the pool's one claim
    lock, so every tile goes to exactly one worker; a graph with no such
    tile never takes the lock.
    """
    while tiles:
        with lock:
            claim = int(cursor[0])
            cursor[0] = claim + 1
        if claim >= len(tiles):
            return
        yield tiles[claim]


def _job_plan(role: int, job: dict, arenas: dict, lock) -> list:
    """Generic ready-set execution of one planned job (any plan kind).

    The worker takes the job's graph, or rebuilds it from the job's spec
    (cached across requests on the same pair), attaches the shared
    cross-owner state array (if the kind has one) plus the shared per-tile
    done-flag array, whose extra last slot is the job's claim cursor, and
    walks its own tiles in id order, then claims ``DYNAMIC`` tiles until
    none is left.  A tile may run once every dependency's flag is up:
    same-owner dependencies are satisfied by program order, cross-owner
    ones are polled under the job timeout so a stuck neighbour surfaces as
    a descriptive error instead of a hang; claimed tiles are edge-free
    (PLAN006) and wait on nothing.  The kernels count their own cells.
    """
    # Telemetry is tile-grained: with the tracer disabled each tile pays
    # three branch checks, keeping the hot per-row path untouched.  The
    # job's fixed cost is split by the JOB_SPANS, stamped only when tracing.
    tracer = get_tracer()
    tracing = tracer.enabled
    t_job = perf_counter() if tracing else 0.0
    s, t = _get_pair(arenas, job["arena"])
    plan = job["plan"]
    graph = plan if isinstance(plan, TaskGraph) else cached_plan(plan, len(s), len(t))
    tiles = graph.tiles
    timeout: float = job["timeout"]
    scoring: Scoring = job["scoring"]
    with _state_array(graph, job["state"]) as state, attach_shared_array(
        job["done"], (len(tiles) + 1,), np.int64
    ) as done:
        if tracing:
            t_attached = perf_counter()
            tracer.record("arena_attach", "coordination", t_job, t_attached - t_job)
        runtime = make_runtime(
            graph, s, t, scoring, state=None if state is None else state.array
        )
        done_flags = done.array
        claimed = _claims(graph.tiles_of(DYNAMIC), done_flags[len(tiles) :], lock)
        if tracing:
            t_ready = perf_counter()
            tracer.record("make_runtime", "coordination", t_attached, t_ready - t_attached)
        wait_s = busy_s = 0.0
        t_tile = first_done = 0.0  # the latest tile's start, the first's end
        first = last = None  # ids of the first and the latest tile run
        for tile in chain(graph.tiles_of(role), claimed):
            if tracing:
                t_tile = perf_counter()
            for dep in tile.deps if tile.owner == role else ():
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
                if first is None:
                    first, first_done = tile.id, t0 + spent
                last = tile.id
        if tracing:
            t_done = perf_counter()
            if first is not None:
                tracer.record(
                    "first_tile", "coordination", t_ready, first_done - t_ready, tile=first
                )
                tracer.record("last_tile", "coordination", t_tile, t_done - t_tile, tile=last)
            metrics = get_metrics()
            metrics.counter("worker_busy_seconds").inc(busy_s)
            metrics.counter("worker_wait_seconds").inc(wait_s)
        emitted = runtime.emit(role)
        if tracing:
            tracer.record("emit", "coordination", t_done, perf_counter() - t_done)
        return emitted


def _pool_worker(role: int, tasks, results, lock) -> None:
    arenas: dict = {}
    try:
        while True:
            message = tasks.get()
            if message is SENTINEL:
                break
            job = pickle.loads(message)  # pickled once by the coordinator
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
                    payload = _job_plan(role, job, arenas, lock)
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

    BACKEND = "pool"

    def __init__(self, n_workers: int = 2, timeout: float = 300.0) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = n_workers
        self.timeout = timeout
        ctx = mp.get_context()
        self._tasks = [ctx.Queue() for _ in range(n_workers)]
        self._results = ctx.Queue()
        # Guards every job's claim cursor.  Locks can only be inherited at
        # fork time, so one lock serves the pool's whole life; the cursor it
        # guards lives in each job's own done-flag segment.
        self._claim_lock = ctx.Lock()
        self._procs = [
            ctx.Process(
                target=_pool_worker,
                args=(w, self._tasks[w], self._results, self._claim_lock),
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

    def _submit(self, job: dict) -> dict[int, object]:
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
        with tracer.span("pool_job", "coordination", job=job["id"]):
            # One pickling for every worker: a search job carries its graph.
            message = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
            for q in self._tasks:
                q.put(message)
            collected = self._collect(job["id"])
        if obs is not None:
            # Fold every worker's segment (spans + metric snapshot) into the
            # coordinator's tracer/registry -- one coherent timeline per run.
            merge_into(tracer, get_metrics(), obs.dir, obs.key)
            discard_segments(obs.dir, obs.key)
        return collected

    def _collect(self, job_id: int) -> dict[int, object]:
        import queue as _queue

        collected: dict[int, object] = {}
        deadline = time.monotonic() + self.timeout
        while len(collected) < self.n_workers:
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
                raise PoolJobError(str(payload))
            collected[role] = payload
        return collected

    # -- planned jobs -------------------------------------------------------

    def run(
        self,
        graph: TaskGraph,
        s: np.ndarray,
        t: np.ndarray,
        scoring: Scoring = DEFAULT_SCORING,
        *,
        scale: int = 1,
    ) -> ExecutionResult:
        """Execute any graph, with the :class:`repro.plan.Executor` signature.

        A search graph goes to :meth:`run_search_plan` (``s`` is the query,
        ``t`` its bucket blob); any other graph to :meth:`run_plan` by its
        spec, which every worker rebuilds.
        """
        if scale != 1:
            raise ValueError("real backends execute actual cells only (scale=1)")
        if graph.kind == "search":
            return self.run_search_plan(graph, s, t, scoring=scoring)
        if graph.spec is None:
            raise ValueError("pool execution needs a graph with a PlanSpec")
        return self.run_plan(graph.spec, s, t, scoring=scoring)

    def run_plan(
        self, spec: PlanSpec, s=None, t=None, *, scoring: Scoring = DEFAULT_SCORING
    ) -> ExecutionResult:
        """Execute one planned job (any static plan kind) on the workers.

        The *spec* -- not the graph -- rides the job descriptor; every
        worker rebuilds the identical graph from ``(spec, rows, cols)`` via
        :func:`repro.plan.cached_plan` and runs its tiles under the generic
        done-flag protocol.  Returns the merged
        :class:`repro.plan.ExecutionResult`.
        """
        handle = self._ensure_pair(s, t)
        return self._run_graph(cached_plan(spec, handle.s_len, handle.t_len), handle, scoring)

    def _run_graph(
        self, graph: TaskGraph, handle: ArenaHandle, scoring: Scoring
    ) -> ExecutionResult:
        """The one pool job behind :meth:`run_plan`, :meth:`phase2` and
        :meth:`run_search_plan`, under the graph's one ``plan:{kind}`` span:
        ship the graph's spec (or, without one, the graph), fresh done flags
        with the claim cursor, and any shared state; merge what the workers
        emit.  A graph without tiles (an empty phase-2 queue) ships no job."""
        # Ranked tiles need one worker per rank; a spec-less (search) graph
        # has only DYNAMIC tiles, which any number of workers can claim.
        if graph.spec is not None and graph.n_procs != self.n_workers:
            raise ValueError(
                f"plan wants {graph.n_procs} processors"
                f" but the pool has {self.n_workers} workers"
            )
        with plan_span(graph, self.BACKEND) as sw:
            parts = self._ship(graph, handle, scoring) if graph.tiles else []
        result = finalize_plan(graph, parts)
        result.backend = self.BACKEND
        result.wall_seconds = sw.elapsed
        return result

    def _ship(self, graph: TaskGraph, handle: ArenaHandle, scoring: Scoring) -> list:
        """Submit one job for ``graph``; every worker's emission, by role."""
        # Nested `with` (not sequential creates + try/finally): if the second
        # allocation raises, the first segment is still unwound.
        with _state_array(graph) as state, create_shared_array(
            (len(graph.tiles) + 1,), np.int64
        ) as done:
            collected = self._submit(
                {
                    "arena": handle,
                    "plan": graph if graph.spec is None else graph.spec,
                    "state": None if state is None else state.name,
                    "done": done.name,
                    "timeout": self.timeout,
                    "scoring": scoring,
                }
            )
        return [collected[role] for role in sorted(collected)]

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
        graph = cached_plan(phase2_spec(self.n_workers, regions), handle.s_len, handle.t_len)
        return self._run_graph(graph, handle, scoring).extras["records"]

    # -- database search -----------------------------------------------------

    def run_search_plan(
        self,
        graph: TaskGraph,
        query: np.ndarray,
        blob: np.ndarray,
        *,
        scoring: Scoring = DEFAULT_SCORING,
    ) -> ExecutionResult:
        """Execute one search graph: its bucket tiles claimed greedily.

        Publishes the query plus the flat bucket blob through one arena for
        this call and runs the graph as any other job; every tile is
        ``DYNAMIC``, so workers claim them from the job's cursor and return
        local top-k heaps, which :func:`repro.plan.finalize_plan` folds into
        one.  The deterministic total order makes the merged ranking
        independent of who claimed what.
        """
        check_search_inputs(graph, query, blob)
        nbytes = int(query.size + blob.size)
        t0 = perf_counter()
        with SequenceArena(query, blob) as arena:
            get_tracer().record(
                "shm_publish", "communication", t0, perf_counter() - t0, bytes=nbytes
            )
            if is_enabled():
                get_metrics().counter("arena_bytes_published").inc(nbytes)
            return self._run_graph(graph, arena.handle, scoring)

"""Executors: run any task graph on a real backend.

Every executor consumes the same :class:`~repro.plan.ir.TaskGraph` and
returns results through the same finalize step, so the choice of backend is
orthogonal to the strategy that produced the graph:

* :class:`InlineExecutor` -- single process, tiles in topological order.
  The fastest way to get exact answers on one host, and the oracle the
  multi-process backend is parity-tested against.
* :class:`repro.parallel.AlignmentWorkerPool` -- the persistent worker
  pool; its ``run`` has the executor signature and executes the graph over
  shared memory with the generic ready-set task protocol.  This package
  never imports :mod:`repro.parallel`.

The simulated backend lives in :mod:`repro.plan.sim_exec`; it shares this
base class, and the pool shares :func:`plan_span`, so observability (the
one ``plan:{kind}`` coordination span, the tile counter) is emitted
uniformly no matter where tiles actually run.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

import numpy as np

from ..core.scoring import DEFAULT_SCORING, Scoring
from ..obs import get_metrics, get_tracer, is_enabled
from ..obs.trace import Stopwatch
from .ir import TaskGraph
from .result import ExecutionResult
from .runtime import finalize_plan, make_runtime
from .verify import maybe_verify


def run_tile_traced(runtime, tile) -> None:
    """Run one tile's kernel, stamping a wall-clock span when traced.

    Every backend records the same per-tile args (:meth:`PlanRuntime.tile_args`),
    so attribution and the cross-backend tile-id parity suite see one schema.
    The kernels count their own cells through the batch API.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        runtime.run_tile(tile)
        return
    t0 = perf_counter()
    runtime.run_tile(tile)
    tracer.record(
        runtime.SPAN_NAME, "computation", t0, perf_counter() - t0, **runtime.tile_args(tile)
    )


@contextmanager
def plan_span(graph: TaskGraph, backend: str) -> Iterator[Stopwatch]:
    """Verify ``graph`` for ``backend`` (strict mode), then time its
    execution under the one ``plan:{kind}`` coordination span.

    Span args (including the O(tiles) critical-path walk and the embedded
    spec for trace-side attribution) are only built when a tracer is
    installed -- the disabled path stays one branch.  The yielded
    stopwatch holds the wall seconds once the block has exited.
    """
    maybe_verify(graph, backend)
    tracer = get_tracer()
    span_args = graph.span_args(backend=backend) if tracer.enabled else {}
    with Stopwatch() as sw, tracer.span(f"plan:{graph.kind}", "coordination", **span_args):
        yield sw
    if is_enabled():
        get_metrics().counter("plan_tiles_executed").inc(len(graph.tiles))


class Executor:
    """Template: wrap ``_execute`` in timing and observability.

    Subclasses implement ``_execute(graph, s, t, scoring, scale)`` and
    declare a ``BACKEND`` name.  The wrapper records one coordination span
    per plan execution (category ``coordination`` -- phase spans stay the
    runner's business) and stamps backend/wall-clock onto the result when
    the backend returns an :class:`ExecutionResult`.
    """

    BACKEND = "abstract"

    def run(
        self,
        graph: TaskGraph,
        s: np.ndarray,
        t: np.ndarray,
        scoring: Scoring = DEFAULT_SCORING,
        *,
        scale: int = 1,
    ):
        with plan_span(graph, self.BACKEND) as sw:
            result = self._execute(graph, s, t, scoring, scale)
        if isinstance(result, ExecutionResult):
            result.backend = self.BACKEND
            result.wall_seconds = sw.elapsed
        return result

    def _execute(self, graph, s, t, scoring, scale):
        raise NotImplementedError


class InlineExecutor(Executor):
    """Execute every tile in-process, in topological (id) order."""

    BACKEND = "inline"

    def _execute(self, graph, s, t, scoring, scale) -> ExecutionResult:
        if scale != 1:
            raise ValueError("real backends execute actual cells only (scale=1)")
        runtime = make_runtime(graph, s, t, scoring)
        for tile in graph.tiles:
            run_tile_traced(runtime, tile)
        return finalize_plan(graph, [runtime.emit(owner) for owner in graph.owners()])

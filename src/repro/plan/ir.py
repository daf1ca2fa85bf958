"""The task-graph intermediate representation behind every backend.

All three of the paper's strategies -- the Section 4.2 wave-front, the
Section 4.3 banded blocks and the Section 5 column-chunk pre_process -- are
dependence-graph schedules over the same DP matrix, and the database search
is the degenerate case of a graph with no edges.  This module makes the
schedule *data*: a :class:`TaskGraph` is a tuple of :class:`Tile` nodes with
integer dependency edges, and the executors (:mod:`repro.plan.executors`,
:mod:`repro.plan.sim_exec`) consume any graph without knowing which strategy
produced it.

Invariants (checked by :meth:`TaskGraph.validate`):

* tile ids are dense ``0 .. n-1`` in tuple order;
* every dependency id is smaller than the tile's own id, so iterating the
  tuple (or any per-owner subsequence of it) is a topological order;
* owners are processor ranks ``0 .. n_procs-1``, or :data:`DYNAMIC` for
  tiles any worker may claim (the search plan).

``Tile`` is a ``NamedTuple`` rather than a dataclass on purpose: wave-front
plans at row granularity contain thousands of tiles per graph and tuple
construction keeps (re)building them off the hot path's budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # planners imports us; the annotation must not re-import it
    from .planners import PlanSpec

#: Owner value of tiles dispatched dynamically (claimed by any worker in id
#: order, not run by a fixed rank).
DYNAMIC = -1


class Tile(NamedTuple):
    """One schedulable unit of DP work.

    ``payload`` is the kind-specific descriptor the runtime interprets
    (e.g. ``(lo, hi, c0, c1)`` for a wave-front row group, ``(band, block)``
    for a blocked tile, a bucket locator for search).  ``cells`` is the DP
    cell count the tile represents, used for accounting and cost charging.
    """

    id: int
    owner: int
    cells: int
    payload: tuple
    deps: tuple[int, ...] = ()


@dataclass
class TaskGraph:
    """A complete schedule: tiles, edges, and the parameters to replay it.

    ``params`` carries everything the runtimes and the finalize step need
    (region thresholds, tiling bounds, top-k, ...) so a graph is
    self-contained; ``spec`` (when set) is the picklable
    :class:`repro.plan.planners.PlanSpec` that deterministically rebuilds
    this graph from ``(spec, rows, cols)`` -- what pool workers ship instead
    of thousands of tiles.
    """

    kind: str
    n_procs: int
    shape: tuple[int, int]
    tiles: tuple[Tile, ...]
    params: dict = field(default_factory=dict)
    spec: PlanSpec | None = None

    def validate(self) -> "TaskGraph":
        if self.n_procs <= 0:
            raise ValueError("n_procs must be positive")
        for i, tile in enumerate(self.tiles):
            if tile.id != i:
                raise ValueError(f"tile ids must be dense: tile {i} has id {tile.id}")
            if tile.owner != DYNAMIC and not 0 <= tile.owner < self.n_procs:
                raise ValueError(f"tile {i}: owner {tile.owner} out of range")
            for dep in tile.deps:
                if not 0 <= dep < i:
                    raise ValueError(
                        f"tile {i}: dep {dep} is not an earlier tile "
                        "(ids must be a topological order)"
                    )
        return self

    def tiles_of(self, owner: int) -> list[Tile]:
        """This owner's tiles in execution (= id = topological) order."""
        return [t for t in self.tiles if t.owner == owner]

    def owners(self) -> list[int]:
        """Distinct owners present, sorted (``DYNAMIC`` first if any)."""
        return sorted({t.owner for t in self.tiles})

    @property
    def total_cells(self) -> int:
        return sum(t.cells for t in self.tiles)

    def critical_path_cells(self) -> int:
        """Cells on the heaviest dependency chain (a lower bound on any
        schedule's makespan in cell-time units)."""
        best: list[int] = []
        for tile in self.tiles:
            here = tile.cells + max((best[d] for d in tile.deps), default=0)
            best.append(here)
        return max(best, default=0)

    def span_args(self, **extra) -> dict:
        """Args stamped onto the ``plan:{kind}`` coordination span.

        This is the trace side of the attribution join
        (:mod:`repro.obs.attrib`): the graph's cell accounting rides the
        span directly, and -- when the graph has a rebuildable spec -- the
        spec's kind/params/shape ride along too, so an analysis tool can
        reconstruct the exact dependency structure from the trace file
        alone.  Spec params are scalars or nested tuples of ints (the
        phase-2 queue), so they survive the Chrome-trace round trip as
        JSON; :func:`repro.obs.attrib.rebuild_graph` turns lists back into
        tuples.
        """
        args = {
            "kind": self.kind,
            "tiles": len(self.tiles),
            "cells": self.total_cells,
            "critical_path_cells": self.critical_path_cells(),
            "n_procs": self.n_procs,
            "rows": self.shape[0],
            "cols": self.shape[1],
            **extra,
        }
        if self.spec is not None:
            args["spec_kind"] = self.spec.kind
            args["spec_params"] = dict(self.spec.params)
        return args

"""Plan runtimes: the one copy of kernel-driving code behind every backend.

A runtime binds a :class:`~repro.plan.ir.TaskGraph` to concrete sequences
and knows how to execute one tile: which kernel to call, which shared state
to read and write, and what partial results to emit per owner.  The
simulated backend, the inline executor and the persistent pool all drive
the *same* runtime object model, which is why their region sets, phase-2
records and search rankings are bitwise identical -- parity holds by
construction, not by careful duplication.

Cross-owner dataflow goes through one ndarray per graph
(:func:`state_shape`): the wave-front's border columns, the banded plans'
boundary rows.  Backends that run owners in separate processes back that
array with a shared-memory arena; in-process backends use a plain array.
Search and phase-2 plans have no cross-tile dataflow and no state array.
Synchronisation is the *backend's* job -- a runtime assumes every
dependency of a tile has already run.

:func:`finalize_plan` is the single merge step: it turns the per-owner
emissions into an :class:`~repro.plan.result.ExecutionResult` (alignment
queue finalisation, result-matrix assembly, phase-2 record order, or top-k
merge).
"""

from __future__ import annotations

import numpy as np

from ..core.alignment import AlignmentQueue, LocalAlignment
from ..core.engine import KernelWorkspace, compute_tile
from ..core.global_align import align_region
from ..core.linear import nw_last_row
from ..core.multi_engine import MultiSequenceWorkspace
from ..core.regions import RegionConfig, StreamingRegionFinder
from ..core.scoring import DEFAULT_SCORING, SCORE_DTYPE, Scoring
from ..core.striped import StripedMultiWorkspace
from ..core.topk import TopK
from .ir import TaskGraph, Tile
from .result import ExecutionResult


def state_shape(graph: TaskGraph) -> tuple[int, ...] | None:
    """Shape of the shared cross-owner state array for this graph.

    Wave-front plans share one border-column slot per (edge, row); banded
    plans share the boundary row below every band.  Search and phase-2
    plans have no cross-tile dataflow at all.
    """
    rows, cols = graph.shape
    if graph.kind == "wavefront":
        return (max(1, graph.n_procs - 1), rows)
    if graph.kind in ("blocked", "preprocess"):
        return (graph.params["n_bands"] + 1, cols + 1)
    if graph.kind in ("search", "phase2"):
        return None
    raise ValueError(f"unknown plan kind {graph.kind!r}")


def _region_config(params: dict) -> RegionConfig:
    return RegionConfig(
        threshold=params["threshold"],
        col_tolerance=params["col_tolerance"],
        row_tolerance=params["row_tolerance"],
    )


def _admission_score(params: dict) -> int:
    min_score = params.get("min_score")
    return params["threshold"] if min_score is None else min_score


class PlanRuntime:
    """Executes tiles of one graph kind against concrete sequences.

    Subclass contract:

    * ``SPAN_NAME`` -- tracer span name one tile execution is recorded
      under (kept identical to the names the pre-planner backends used, so
      existing trace tooling keeps working);
    * :meth:`run_tile` assumes all dependencies of the tile have run, and
      its kernels count their own cells (:func:`repro.obs.count_cells`);
    * :meth:`emit` returns a *picklable* partial result for one owner.
    """

    SPAN_NAME = "tile"

    #: Attribution labels (see :meth:`tile_args`).  Runtimes overwrite
    #: these in ``__init__`` from the graph.  ``dtype_name`` is the
    #: *scheduled* DP state dtype ("auto" where the kernel picks lane
    #: dtypes per bucket).
    kind_name = ""
    kernel_name = "classic"
    dtype_name = "int32"

    def tile_args(self, tile: Tile) -> dict:
        """Span args stamped onto every executed tile, on every backend.

        ``tile`` (the id) is the join key :mod:`repro.obs.attrib` uses to
        line trace slices up with the plan's dependency structure; the rest
        lets a report say *what* ran without the graph in hand.
        """
        return {
            "tile": tile.id,
            "owner": tile.owner,
            "kind": self.kind_name,
            "cells": tile.cells,
            "kernel": self.kernel_name,
            "dtype": self.dtype_name,
        }

    def run_tile(self, tile: Tile) -> None:
        raise NotImplementedError

    def emit(self, owner: int) -> list:
        raise NotImplementedError

    def open_region_count(self, owner: int) -> int:
        """How many candidate regions this owner would gather (sim sizing)."""
        return len(self.emit(owner))


class WavefrontRuntime(PlanRuntime):
    """Section 4.2 execution: per-owner two-row scans over a column slice.

    ``state[p - 1, i]`` is the border value processor ``p`` reads for row
    ``i`` (written by ``p - 1``); the last processor writes no borders.
    """

    SPAN_NAME = "rows"

    def __init__(
        self,
        graph: TaskGraph,
        s: np.ndarray,
        t: np.ndarray,
        scoring: Scoring,
        state: np.ndarray,
    ) -> None:
        self.graph = graph
        self.s = s
        self.t = t
        self.scoring = scoring
        self.borders = state
        self.kind_name = graph.kind
        self._owners: dict[int, dict] = {}

    def _owner(self, p: int) -> dict:
        st = self._owners.get(p)
        if st is None:
            c0, c1 = self.graph.params["slices"][p]
            st = {
                "c0": c0,
                "ws": KernelWorkspace(self.t[c0:c1], self.scoring),
                "prev": np.zeros(c1 - c0 + 1, dtype=SCORE_DTYPE),
                "finder": StreamingRegionFinder(_region_config(self.graph.params)),
            }
            self._owners[p] = st
        return st

    def run_tile(self, tile: Tile) -> None:
        lo, hi, _c0, _c1 = tile.payload
        p = tile.owner
        st = self._owner(p)
        h = hi - lo
        if h <= 0:
            return
        block = np.empty((h, st["prev"].size), dtype=SCORE_DTYPE)
        lefts = self.borders[p - 1, lo:hi] if p > 0 else None
        finder = st["finder"]
        cfg = finder.config
        segments = st["ws"].sw_rows_cut(
            st["prev"], self.s[lo:hi], lefts, cfg.threshold, cfg.col_tolerance, out=block
        )
        if p != self.graph.n_procs - 1:
            self.borders[p, lo:hi] = block[:, -1]
        st["prev"][:] = block[-1]
        finder.feed_segments(lo + 1, h, segments)

    def emit(self, owner: int) -> list:
        """Regions of one owner as global-coordinate alignment tuples."""
        st = self._owner(owner)
        c0 = st["c0"]
        out = []
        for region in st["finder"].finish():
            a = region.as_alignment()
            out.append((a.score, a.s_start, a.s_end, a.t_start + c0, a.t_end + c0))
        return out

    def open_region_count(self, owner: int) -> int:
        return self._owner(owner)["finder"].open_count()


class _BandedRuntime(PlanRuntime):
    """Shared machinery of the blocked and pre_process runtimes.

    ``state[band + 1]`` is the boundary row below ``band`` (DP indexing,
    full matrix width); a tile reads ``state[band]`` and its own running
    left column, both valid once its dependencies have run.
    """

    def __init__(
        self,
        graph: TaskGraph,
        s: np.ndarray,
        t: np.ndarray,
        scoring: Scoring,
        state: np.ndarray,
    ) -> None:
        self.graph = graph
        self.s = s
        self.t = t
        self.scoring = scoring
        self.boundaries = state
        self.kind_name = graph.kind
        self.row_bounds = graph.params["row_bounds"]
        self.col_bounds = graph.params["col_bounds"]
        self._bands: dict[int, dict] = {}  # owner -> current-band scratch
        self._workspaces: dict[int, KernelWorkspace] = {}  # per column block

    def _workspace(self, block: int, c0: int, c1: int) -> KernelWorkspace:
        ws = self._workspaces.get(block)
        if ws is None:
            ws = KernelWorkspace(self.t[c0:c1], self.scoring)
            self._workspaces[block] = ws
        return ws

    def _compute(self, tile: Tile) -> np.ndarray | None:
        """Run the DP over one tile, update boundaries, return the tile matrix."""
        band, block = tile.payload
        r0, r1 = self.row_bounds[band]
        c0, c1 = self.col_bounds[block]
        h, w = r1 - r0, c1 - c0
        if h == 0 or w == 0:
            return None
        st = self._bands.get(tile.owner)
        if st is None or st["band"] != band:
            st = {"band": band, "left_col": np.zeros(h, dtype=SCORE_DTYPE)}
            self._bands[tile.owner] = st
        top = self.boundaries[band, c0 : c1 + 1].copy()
        matrix = compute_tile(
            top,
            st["left_col"],
            self.s[r0:r1],
            self.t[c0:c1],
            self.scoring,
            workspace=self._workspace(block, c0, c1),
        )
        st["left_col"] = matrix[:, -1].copy()
        self.boundaries[band + 1, c0 + 1 : c1 + 1] = matrix[-1, 1:]
        return matrix


class BlockedRuntime(_BandedRuntime):
    """Section 4.3 execution: banded blocks plus per-band region detection.

    Each owner runs its tiles into one tile-sized scratch and carries the
    left column from block to block.  The DP loop cuts every row's
    above-threshold segments while it computes the tile
    (:meth:`KernelWorkspace.sw_rows_cut`); when the band's last block has
    run, its segments, in column order, go through one region merge, which
    joins the segments that meet across a block border.
    """

    SPAN_NAME = "tile"

    def __init__(self, graph, s, t, scoring, state) -> None:
        super().__init__(graph, s, t, scoring, state)
        self._config = _region_config(graph.params)
        self._found: dict[int, list] = {}
        self._scratch: dict[int, np.ndarray] = {}  # owner -> tile scratch
        widths = [c1 - c0 for c0, c1 in self.col_bounds]
        heights = [r1 - r0 for r0, r1 in self.row_bounds]
        self._tile_shape = (max(heights, default=0), max(widths, default=0) + 1)

    def run_tile(self, tile: Tile) -> None:
        band, block = tile.payload
        r0, r1 = self.row_bounds[band]
        c0, c1 = self.col_bounds[block]
        h, w = r1 - r0, c1 - c0
        if h == 0:
            return
        if block == 0:
            self._bands[tile.owner] = {
                "left": np.zeros(h, dtype=SCORE_DTYPE),
                "segments": [],
            }
        st = self._bands[tile.owner]
        if w > 0:
            scratch = self._scratch.get(tile.owner)
            if scratch is None:
                scratch = self._scratch[tile.owner] = np.empty(self._tile_shape, dtype=SCORE_DTYPE)
            rows = scratch[:h, : w + 1]
            cfg = self._config
            segments = self._workspace(block, c0, c1).sw_rows_cut(
                self.boundaries[band, c0 : c1 + 1],
                self.s[r0:r1],
                st["left"],
                cfg.threshold,
                cfg.col_tolerance,
                out=rows,
            )
            st["left"] = rows[:, w].copy()
            self.boundaries[band + 1, c0 + 1 : c1 + 1] = rows[-1, 1:]
            if len(segments):
                segments[:, 1:4] += c0  # tile columns -> matrix columns
                st["segments"].append(segments)
        if block == len(self.col_bounds) - 1:
            # band finished: one merge over its segments in (row, column) order
            parts = st["segments"]
            segments = np.concatenate(parts) if parts else np.empty((0, 6), dtype=np.int64)
            segments = segments[np.argsort(segments[:, 0], kind="stable")]
            finder = StreamingRegionFinder(self._config)
            finder.feed_segments(r0 + 1, h, segments)
            found = self._found.setdefault(tile.owner, [])
            for region in finder.finish():
                a = region.as_alignment()
                found.append((a.score, a.s_start, a.s_end, a.t_start, a.t_end))

    def emit(self, owner: int) -> list:
        return self._found.get(owner, [])


class PreprocessRuntime(_BandedRuntime):
    """Section 5 execution: banded chunks feeding the scoreboard."""

    SPAN_NAME = "tile"

    def __init__(self, graph, s, t, scoring, state) -> None:
        super().__init__(graph, s, t, scoring, state)
        params = graph.params
        self.threshold = params["threshold"]
        self.ip_result = params["result_interleave"]
        cols = graph.shape[1]
        n_buckets = -(-cols // self.ip_result)
        self.result_matrix = np.zeros((params["n_bands"], n_buckets), dtype=np.int64)

    def run_tile(self, tile: Tile) -> None:
        matrix = self._compute(tile)
        if matrix is None:
            return
        band, block = tile.payload
        c0, c1 = self.col_bounds[block]
        hits_per_col = (matrix[:, 1:] >= self.threshold).sum(axis=0)
        row = self.result_matrix[band]
        for j in range(c1 - c0):
            row[(c0 + j) // self.ip_result] += int(hits_per_col[j])

    def emit(self, owner: int) -> list:
        """``(band, counts)`` rows of the scoreboard this owner filled."""
        bands = sorted({t.payload[0] for t in self.graph.tiles_of(owner)})
        return [(band, self.result_matrix[band].copy()) for band in bands]


class Phase2Runtime(PlanRuntime):
    """Section 4.4 execution: globally align one queue slot per tile, the
    rendered Fig. 16 record or (``render`` off) the NW score only.  Emits
    ``(slot, record)`` pairs."""

    SPAN_NAME = "align_region"

    def __init__(self, graph, s, t, scoring, state=None) -> None:
        self.s, self.t, self.scoring = s, t, scoring
        self.render = graph.params["render"]
        self.kind_name = graph.kind
        self._records: dict[int, list] = {}

    def run_tile(self, tile: Tile) -> None:
        _score, s0, s1, t0, t1 = region = tile.payload
        if self.render:
            record = align_region(self.s, self.t, LocalAlignment(*region), self.scoring)
        else:
            record = int(nw_last_row(self.s[s0:s1], self.t[t0:t1], self.scoring)[-1])
        self._records.setdefault(tile.owner, []).append((tile.id, record))

    def emit(self, owner: int) -> list:
        return self._records.get(owner, [])


class SearchRuntime(PlanRuntime):
    """Database-search execution: one batched bucket scan per tile.

    ``s`` is the encoded query and ``t`` the flat bucket blob
    (:func:`repro.plan.planners.search_blob`).  Each tile's payload
    ``(offset, width, lanes, lengths, indices)`` locates one bucket in the
    blob, and the tile scans every lane of it into the runtime's one
    :class:`TopK`.
    """

    SPAN_NAME = "search_chunk"

    def __init__(self, graph, s, t, scoring, state=None) -> None:
        self.query = s
        self.blob = t
        self.scoring = scoring
        self.kernel = graph.params["kernel"]
        self.kind_name = graph.kind
        self.kernel_name = self.kernel
        # Lane dtypes are chosen per bucket: int16-when-provably-safe for the
        # classic batch, the int8->int16->int32 escalation for striped.
        self.dtype_name = "auto"
        self.top = TopK(graph.params["top_k"])

    def run_tile(self, tile: Tile) -> None:
        offset, width, lanes, lengths, indices = tile.payload
        codes = self.blob[offset : offset + lanes * width].reshape(lanes, width)
        lengths = np.asarray(lengths, dtype=np.int64)
        if self.kernel == "striped":
            ws = StripedMultiWorkspace(codes, lengths, self.scoring)
        else:
            ws = MultiSequenceWorkspace(codes, lengths, self.scoring)
        self.top.push_lanes(ws.sw_best_scores(self.query), indices)

    def emit(self, owner: int) -> dict:
        """Picklable partial result: this runtime's top-k survivors."""
        return {"items": self.top.items()}


def check_search_inputs(graph: TaskGraph, query: np.ndarray, blob: np.ndarray) -> None:
    """Refuse a query or blob of another size than the search graph's.

    Tile locators are offsets into the blob the graph was planned for; a
    blob of another packing (say the whole database under a graph planned
    over a re-packed subset of it) slices the wrong lanes and returns a
    wrong ranking without any error.
    """
    if (len(query), len(blob)) != graph.shape:
        raise ValueError(
            f"search graph wants a {graph.shape[0]}-residue query and a "
            f"{graph.shape[1]}-byte blob, got {len(query)} and {len(blob)}: "
            f"plan and blob must come from the same packing"
        )


_RUNTIMES = {
    "wavefront": WavefrontRuntime,
    "blocked": BlockedRuntime,
    "preprocess": PreprocessRuntime,
    "phase2": Phase2Runtime,
    "search": SearchRuntime,
}


def make_runtime(
    graph: TaskGraph,
    s: np.ndarray,
    t: np.ndarray,
    scoring: Scoring = DEFAULT_SCORING,
    state: np.ndarray | None = None,
) -> PlanRuntime:
    """Build the runtime for a graph, allocating private state if none given.

    For search graphs, ``s`` is the encoded query and ``t`` the packed
    database blob (:func:`repro.plan.planners.search_blob`) -- the pair the
    tiles' bucket locators index into.
    """
    if graph.kind == "search":
        check_search_inputs(graph, s, t)
    try:
        cls = _RUNTIMES[graph.kind]
    except KeyError:
        raise ValueError(f"no runtime for plan kind {graph.kind!r}") from None
    shape = state_shape(graph)
    if state is None and shape is not None:
        state = np.zeros(shape, dtype=SCORE_DTYPE)
    return cls(graph, s, t, scoring, state)


def finalize_plan(
    graph: TaskGraph, parts: list[list], scale: int = 1
) -> ExecutionResult:
    """Merge per-owner emissions into one result (the gather step).

    ``parts`` is one :meth:`PlanRuntime.emit` list per participating owner,
    in any order.  ``scale`` projects region coordinates into nominal units
    before queue finalisation -- the scaled-workload path of the simulated
    backend; real backends always pass 1.
    """
    params = graph.params
    result = ExecutionResult(
        kind=graph.kind,
        n_procs=graph.n_procs,
        n_tiles=len(graph.tiles),
        total_cells=graph.total_cells,
    )
    if graph.kind in ("wavefront", "blocked"):
        queue = AlignmentQueue()
        for part in parts:
            for score, s0, s1, t0, t1 in part:
                queue.push(
                    LocalAlignment(
                        score=score,
                        s_start=s0 * scale,
                        s_end=s1 * scale,
                        t_start=t0 * scale,
                        t_end=t1 * scale,
                    )
                )
        result.alignments = queue.finalize(
            min_score=_admission_score(params),
            overlap_slack=params["overlap_slack"] * scale,
            merge=True,
        )
        if graph.kind == "blocked":
            result.extras = {
                "n_bands": params["n_bands"],
                "n_blocks": params["n_blocks"],
            }
    elif graph.kind == "preprocess":
        cols = graph.shape[1]
        n_buckets = -(-cols // params["result_interleave"])
        matrix = np.zeros((params["n_bands"], n_buckets), dtype=np.int64)
        for part in parts:
            for band, counts in part:
                matrix[band] += np.asarray(counts)
        result.extras = {
            "result_matrix": matrix,
            "band_heights": params["band_heights"],
            "n_bands": params["n_bands"],
            "n_chunks": params["n_chunks"],
        }
    elif graph.kind == "search":
        # Every worker's heap folds into one: the strict (score, -index)
        # order makes the fold exact and independent of arrival order.
        top = TopK(params["top_k"])
        for part in parts:
            top.merge(part["items"])
        result.hits = top.ranked()
    elif graph.kind == "phase2":
        records: list = [None] * len(graph.tiles)
        for part in parts:
            for slot, record in part:
                records[slot] = record
        result.alignments = [LocalAlignment(*t.payload) for t in graph.tiles]
        result.extras = {"records": records}
    else:
        raise ValueError(f"unknown plan kind {graph.kind!r}")
    return result

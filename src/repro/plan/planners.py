"""Planners: build a :class:`TaskGraph` from strategy parameters.

One planner per schedule the paper describes:

* :func:`plan_wavefront` -- Section 4.2's column partition crossed with row
  groups; tile ``(g, p)`` depends on its left neighbour ``(g, p-1)`` (border
  column values) and its own previous group ``(g-1, p)``.
* :func:`plan_blocked` -- Section 4.3's bands x blocks tiling with bands
  dealt round-robin; tile ``(band, block)`` depends on ``(band-1, block)``
  (the passage row above) and ``(band, block-1)`` (the left column).
* :func:`plan_preprocess` -- Section 5's bands x column-chunks, same edge
  structure as the blocked plan but with the scoreboard payload.
* :func:`plan_search_buckets` -- the database search: one independent tile
  per length bucket, owned by :data:`DYNAMIC` (claimed, not assigned).
* :func:`plan_phase2` -- Section 4.4's scattered mapping: one independent
  tile per queue slot, slot ``i`` owned by rank ``i mod P``.

:class:`PlanSpec` is the picklable seed of a graph: pool jobs ship a spec
and every worker rebuilds the identical graph from ``(spec, rows, cols)``
via :func:`cached_plan`, which also lets repeated requests on a loaded pair
skip the rebuild entirely.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, is_dataclass
from functools import lru_cache

import numpy as np

from .ir import DYNAMIC, TaskGraph, Tile
from .partition import (
    band_heights,
    bounds_from_heights,
    chunk_widths,
    column_partition,
    explicit_tiling,
)


@dataclass(frozen=True)
class PlanSpec:
    """A picklable, hashable recipe for one task graph.

    ``params`` is a sorted tuple of ``(name, value)`` pairs (scalars, or
    the phase-2 queue as a tuple of int tuples), so a spec can ride a job
    descriptor through a queue and serve as an ``lru_cache`` key on both
    sides.
    """

    kind: str
    params: tuple[tuple[str, object], ...]

    @property
    def kwargs(self) -> dict:
        return dict(self.params)

    def build(self, rows: int, cols: int) -> TaskGraph:
        return build_plan(self, rows, cols)


def _spec(kind: str, **params: object) -> PlanSpec:
    return PlanSpec(kind, tuple(sorted(params.items())))


#: Bucket-scan kernels a search graph can select: the dense batch of
#: :mod:`repro.core.multi_engine` or the striped scan of
#: :mod:`repro.core.striped`.  Pairwise plans have one row path.
KERNELS = ("classic", "striped")


def _check_kernel(kernel: str) -> str:
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    return kernel


def wavefront_spec(
    n_procs: int,
    group_rows: int = 1,
    threshold: int = 35,
    col_tolerance: int = 16,
    row_tolerance: int = 16,
    min_score: int | None = None,
    overlap_slack: int = 8,
    home_migration: bool = False,
) -> PlanSpec:
    return _spec(
        "wavefront",
        n_procs=n_procs,
        group_rows=group_rows,
        threshold=threshold,
        col_tolerance=col_tolerance,
        row_tolerance=row_tolerance,
        min_score=min_score,
        overlap_slack=overlap_slack,
        home_migration=home_migration,
    )


def blocked_spec(
    n_procs: int,
    n_bands: int,
    n_blocks: int,
    threshold: int = 35,
    col_tolerance: int = 16,
    row_tolerance: int = 16,
    min_score: int | None = None,
    overlap_slack: int = 8,
) -> PlanSpec:
    return _spec(
        "blocked",
        n_procs=n_procs,
        n_bands=n_bands,
        n_blocks=n_blocks,
        threshold=threshold,
        col_tolerance=col_tolerance,
        row_tolerance=row_tolerance,
        min_score=min_score,
        overlap_slack=overlap_slack,
    )


def preprocess_spec(
    n_procs: int,
    band_size: int,
    chunk_size: int,
    band_scheme: str = "fixed",
    chunk_growth: str = "fixed",
    threshold: int = 20,
    result_interleave: int = 1000,
    save_interleave: int = 1000,
    io_mode: str = "none",
    cache_friendly_rows: int = 32_000,
    cache_penalty: float = 0.20,
) -> PlanSpec:
    return _spec(
        "preprocess",
        n_procs=n_procs,
        band_size=band_size,
        chunk_size=chunk_size,
        band_scheme=band_scheme,
        chunk_growth=chunk_growth,
        threshold=threshold,
        result_interleave=result_interleave,
        save_interleave=save_interleave,
        io_mode=io_mode,
        cache_friendly_rows=cache_friendly_rows,
        cache_penalty=cache_penalty,
    )


def _queue_order(regions) -> tuple[tuple[int, ...], ...]:
    """Phase-2 queue entries ``(score, s0, s1, t0, t1)`` "sorted by subsequence
    size" (Section 4.4): largest first, ties by coordinates."""
    entries = (tuple(map(int, astuple(r) if is_dataclass(r) else r)) for r in regions)
    return tuple(sorted(entries, key=lambda e: (-max(e[2] - e[1], e[4] - e[3]), e[1:])))


def phase2_spec(n_procs: int, regions, render: bool = True) -> PlanSpec:
    return _spec("phase2", n_procs=n_procs, regions=_queue_order(regions), render=render)


# --------------------------------------------------------------------------
# Planners
# --------------------------------------------------------------------------


def plan_wavefront(
    rows: int,
    cols: int,
    *,
    n_procs: int,
    group_rows: int = 1,
    threshold: int = 35,
    col_tolerance: int = 16,
    row_tolerance: int = 16,
    min_score: int | None = None,
    overlap_slack: int = 8,
    home_migration: bool = False,
) -> TaskGraph:
    """Section 4.2 schedule: columns split N/P, rows grouped by ``group_rows``."""
    if group_rows <= 0:
        raise ValueError("group_rows must be positive")
    slices = column_partition(cols, n_procs)
    tiles: list[Tile] = []
    tid = 0
    for lo in range(0, rows, group_rows):
        hi = min(lo + group_rows, rows)
        for p in range(n_procs):
            c0, c1 = slices[p]
            deps: list[int] = []
            if p > 0:
                deps.append(tid - 1)  # left neighbour, same group
            if lo > 0:
                deps.append(tid - n_procs)  # my previous group
            tiles.append(
                Tile(tid, p, (hi - lo) * (c1 - c0), (lo, hi, c0, c1), tuple(deps))
            )
            tid += 1
    graph = TaskGraph(
        kind="wavefront",
        n_procs=n_procs,
        shape=(rows, cols),
        tiles=tuple(tiles),
        params={
            "group_rows": group_rows,
            "slices": tuple(slices),
            "threshold": threshold,
            "col_tolerance": col_tolerance,
            "row_tolerance": row_tolerance,
            "min_score": min_score,
            "overlap_slack": overlap_slack,
            "home_migration": home_migration,
        },
        spec=wavefront_spec(
            n_procs,
            group_rows,
            threshold,
            col_tolerance,
            row_tolerance,
            min_score,
            overlap_slack,
            home_migration,
        ),
    )
    return graph.validate()


def _banded_tiles(
    row_bounds, col_bounds, n_procs: int
) -> tuple[Tile, ...]:
    """Band x block tiles dealt round-robin with the shared edge structure."""
    n_blocks = len(col_bounds)
    tiles: list[Tile] = []
    tid = 0
    for band, (r0, r1) in enumerate(row_bounds):
        for block, (c0, c1) in enumerate(col_bounds):
            deps: list[int] = []
            if band > 0:
                deps.append(tid - n_blocks)  # passage row from the band above
            if block > 0:
                deps.append(tid - 1)  # left column, same band
            tiles.append(
                Tile(
                    tid,
                    band % n_procs,
                    (r1 - r0) * (c1 - c0),
                    (band, block),
                    tuple(deps),
                )
            )
            tid += 1
    return tuple(tiles)


def plan_blocked(
    rows: int,
    cols: int,
    *,
    n_procs: int,
    n_bands: int,
    n_blocks: int,
    threshold: int = 35,
    col_tolerance: int = 16,
    row_tolerance: int = 16,
    min_score: int | None = None,
    overlap_slack: int = 8,
) -> TaskGraph:
    """Section 4.3 schedule: bands x blocks, band ``b`` owned by ``b mod P``."""
    tiling = explicit_tiling(rows, cols, n_bands, n_blocks)
    graph = TaskGraph(
        kind="blocked",
        n_procs=n_procs,
        shape=(rows, cols),
        tiles=_banded_tiles(tiling.row_bounds, tiling.col_bounds, n_procs),
        params={
            "row_bounds": tiling.row_bounds,
            "col_bounds": tiling.col_bounds,
            "n_bands": tiling.n_bands,
            "n_blocks": tiling.n_blocks,
            "threshold": threshold,
            "col_tolerance": col_tolerance,
            "row_tolerance": row_tolerance,
            "min_score": min_score,
            "overlap_slack": overlap_slack,
        },
        spec=blocked_spec(
            n_procs,
            n_bands,
            n_blocks,
            threshold,
            col_tolerance,
            row_tolerance,
            min_score,
            overlap_slack,
        ),
    )
    return graph.validate()


def plan_preprocess(
    rows: int,
    cols: int,
    *,
    n_procs: int,
    band_size: int,
    chunk_size: int,
    band_scheme: str = "fixed",
    chunk_growth: str = "fixed",
    threshold: int = 20,
    result_interleave: int = 1000,
    save_interleave: int = 1000,
    io_mode: str = "none",
    cache_friendly_rows: int = 32_000,
    cache_penalty: float = 0.20,
) -> TaskGraph:
    """Section 5 schedule: bands x column chunks with the scoreboard payload.

    All sizes are in *actual* rows/columns -- callers that simulate a scaled
    workload convert nominal parameters before planning.
    """
    heights = band_heights(band_scheme, rows, band_size, n_procs)
    row_bounds = bounds_from_heights(heights)
    widths = chunk_widths(cols, chunk_size, chunk_growth)
    col_bounds = bounds_from_heights(widths)
    graph = TaskGraph(
        kind="preprocess",
        n_procs=n_procs,
        shape=(rows, cols),
        tiles=_banded_tiles(row_bounds, col_bounds, n_procs),
        params={
            "row_bounds": row_bounds,
            "col_bounds": col_bounds,
            "n_bands": len(row_bounds),
            "n_chunks": len(col_bounds),
            "band_heights": heights,
            "threshold": threshold,
            "result_interleave": result_interleave,
            "save_interleave": save_interleave,
            "io_mode": io_mode,
            "cache_friendly_rows": cache_friendly_rows,
            "cache_penalty": cache_penalty,
        },
        spec=preprocess_spec(
            n_procs,
            band_size,
            chunk_size,
            band_scheme,
            chunk_growth,
            threshold,
            result_interleave,
            save_interleave,
            io_mode,
            cache_friendly_rows,
            cache_penalty,
        ),
    )
    return graph.validate()


def plan_phase2(
    rows: int, cols: int, *, n_procs: int, regions, render: bool = True
) -> TaskGraph:
    """Section 4.4 schedule: one edge-free tile per queue slot, slot ``i`` on
    rank ``i mod P`` ("processor Pi is responsible for accessing positions
    i, i+P, i+2P, ...").  A tile's cells are its region's area and its
    payload the queue entry; ``render=False`` computes scores only."""
    ordered = _queue_order(regions)
    for entry in ordered:
        if entry[2] > rows or entry[4] > cols:
            raise ValueError(f"region {entry} exceeds the {rows}x{cols} pair")
    graph = TaskGraph(
        kind="phase2",
        n_procs=n_procs,
        shape=(rows, cols),
        tiles=tuple(
            Tile(slot, slot % n_procs, (e[2] - e[1]) * (e[4] - e[3]), e)
            for slot, e in enumerate(ordered)
        ),
        params={"regions": ordered, "render": render},
        spec=phase2_spec(n_procs, ordered, render),
    )
    return graph.validate()


def plan_search_buckets(
    packed,
    query_len: int,
    *,
    top_k: int = 10,
    kernel: str = "classic",
) -> TaskGraph:
    """Database search: one independent tile per length bucket.

    Tiles carry ``(offset, width, lanes, lengths, indices)`` locating one
    bucket inside the flat blob built by :func:`search_blob`; every tile is
    :data:`DYNAMIC` and there are no edges, so any dispatch order (the
    pool's greedy claims included) is valid.  Score-bound pruning
    happens before planning
    (:func:`repro.strategies.prefilter.pruned_search` plans the seed prefix
    and the survivors as two such graphs).

    Search graphs have no spec: they derive from a packed database, not from
    ``(rows, cols)``.
    """
    tiles: list[Tile] = []
    offset = 0
    for tid, bucket in enumerate(packed.buckets):
        lengths = tuple(int(x) for x in bucket.lengths)
        locator = (
            offset,
            int(bucket.width),
            int(bucket.lanes),
            lengths,
            tuple(int(x) for x in bucket.indices),
        )
        tiles.append(Tile(tid, DYNAMIC, query_len * sum(lengths), locator))
        offset += int(bucket.codes.size)
    params = {
        "top_k": top_k,
        "query_len": query_len,
        "kernel": _check_kernel(kernel),
    }
    graph = TaskGraph(
        kind="search",
        n_procs=1,
        shape=(query_len, offset),
        tiles=tuple(tiles),
        params=params,
    )
    return graph.validate()


def search_blob(packed) -> np.ndarray:
    """Flatten every bucket's code matrix into one contiguous uint8 blob.

    Offsets match :func:`plan_search_buckets` (same iteration order): a
    tile's ``(offset, width, lanes)`` slices the blob back into exactly that
    bucket's code matrix.
    """
    blob = np.empty(sum(int(b.codes.size) for b in packed.buckets), dtype=np.uint8)
    offset = 0
    for bucket in packed.buckets:
        flat = np.ascontiguousarray(bucket.codes).reshape(-1)
        blob[offset : offset + flat.size] = flat
        offset += flat.size
    return blob


_PLANNERS = {
    "wavefront": plan_wavefront,
    "blocked": plan_blocked,
    "preprocess": plan_preprocess,
    "phase2": plan_phase2,
}


def build_plan(spec: PlanSpec, rows: int, cols: int) -> TaskGraph:
    """Rebuild the graph a spec describes for a concrete matrix shape."""
    try:
        planner = _PLANNERS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown plan kind {spec.kind!r}") from None
    return planner(rows, cols, **spec.kwargs)


@lru_cache(maxsize=16)
def cached_plan(spec: PlanSpec, rows: int, cols: int) -> TaskGraph:
    """Memoized :func:`build_plan`: repeated jobs on a loaded pair (the
    pool's amortisation scenario) reuse the graph instead of rebuilding
    thousands of tiles per request.  Graphs are treated as immutable."""
    return build_plan(spec, rows, cols)

"""Static verification of task graphs: prove the schedule before running it.

:meth:`TaskGraph.validate` checks the bare IR invariants and *raises* on the
first violation.  This module is the full prover behind it: it checks every
invariant the executors and the pool protocol rely on, reports each breach
as a :class:`repro.check.engine.Finding` (same pipeline as ``repro check``
-- text/JSON rendering, rule ids, CI gating), and never raises on a bad
graph unless strict mode asked it to.

Rules (the ``line`` of a finding is the offending tile id, or 0 for
graph-level breaches):

* **PLAN001 -- broken topology.**  A dependency edge pointing at the tile
  itself, forward, or out of range.  Because edges are stored as smaller
  integer ids, this is the *only* way a cycle can be expressed in the IR;
  every executor's id-order walk turns it into a hang (inline) or a starved
  ``done``-flag poll (pool).
* **PLAN002 -- non-dense ids.**  Tile ids must be exactly ``0..n-1`` in
  tuple order: the pool's shared done-flag array, the runtimes' state
  indexing and the simulator's cv numbering all index by id.
* **PLAN003 -- owner breach.**  An owner outside ``0..n_procs-1`` (and not
  :data:`~repro.plan.ir.DYNAMIC`), a cursor-claimed tile inside a static
  schedule, or -- for the wave-front, whose column partition gives every
  rank work -- a rank that owns nothing (its column slice would never be
  computed).
* **PLAN004 -- cell-count breach.**  Conservation against the partition
  geometry: every tile's ``cells`` must equal what its payload covers, the
  payload bounds must tile the DP matrix (or the packed buckets) exactly,
  and nothing may be covered twice or dropped.  This is the check that
  catches a planner whose tiles silently skip rows.  Search graphs are
  conserved *per sequence*: each database index appears in exactly one
  lane of one tile, or its duplicate scores would double up in the merge.
  Phase-2 graphs are conserved against their queue: each tile's cells are
  its region's area, every queue slot is aligned exactly once, and slot
  ``i`` is owned by rank ``i mod P`` (the scattered mapping; unlike the
  wave-front, a rank with no slot is legal).
* **PLAN005 -- deadlock.**  The pool's worker/coordinator handshake is
  simulated as a state machine: each worker walks its own tiles in id
  order, blocking on cross-owner ``done`` flags, and the job's claim cursor
  hands the ``DYNAMIC`` tiles out in id order (search plans).  If nothing
  can step and work remains, the stuck worker/tile/dependency triple is
  reported.  With PLAN001 clean this cannot fire -- the smallest unfinished
  id is always runnable -- which is exactly the theorem the simulation
  re-checks instead of assuming.
* **PLAN006 -- backend illegality.**  A graph handed to an executor that
  cannot run it: search tiles with dependencies on the pool (a tile
  claimed from its cursor waits on no done flags), spec-less pair graphs
  on the pool (workers rebuild a pair graph from its spec), unknown plan
  kinds on the simulator's choreography table.

``verify_graph``/``verify_plan`` are the library entry points;
:func:`sweep_plans` enumerates planner x backend combinations (search:
x kernel) for ``repro check --plans``; :func:`maybe_verify` is the
strict-mode hook the executors call (enable with ``REPRO_VERIFY_PLANS=1``
or :func:`set_strict`).
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from typing import Iterator, Optional, Sequence

import numpy as np

from ..check.engine import Finding
from .ir import DYNAMIC, TaskGraph
from .planners import (
    PlanSpec,
    blocked_spec,
    build_plan,
    phase2_spec,
    plan_search_buckets,
    preprocess_spec,
    wavefront_spec,
)

__all__ = [
    "BACKENDS",
    "PlanVerificationError",
    "is_strict",
    "maybe_verify",
    "set_strict",
    "sweep_plans",
    "verify_graph",
    "verify_plan",
]

#: Executor backends a graph can be verified against.
BACKENDS = ("inline", "pool", "sim")

#: Plan kinds with a static owner partition (everything but search).
STATIC_KINDS = ("wavefront", "blocked", "preprocess", "phase2")

_ENV_FLAG = "REPRO_VERIFY_PLANS"


class PlanVerificationError(ValueError):
    """Strict mode rejected a graph; ``findings`` carries the proof."""

    def __init__(self, findings: Sequence[Finding]) -> None:
        self.findings = tuple(findings)
        lines = "\n".join(f.format() for f in self.findings)
        super().__init__(
            f"plan verification failed with {len(self.findings)} finding(s):\n{lines}"
        )


def _finding(graph: TaskGraph, rule: str, message: str, tile_id: int = 0) -> Finding:
    return Finding(
        path=f"<plan:{graph.kind}>", line=tile_id, col=0, rule=rule, message=message
    )


# -- PLAN001 / PLAN002 / PLAN003: structure --------------------------------


def _check_structure(graph: TaskGraph) -> Iterator[Finding]:
    n = len(graph.tiles)
    if graph.n_procs <= 0:
        yield _finding(graph, "PLAN003", f"n_procs must be positive, got {graph.n_procs}")
    for pos, tile in enumerate(graph.tiles):
        if tile.id != pos:
            yield _finding(
                graph,
                "PLAN002",
                f"tile at position {pos} has id {tile.id}: ids must be dense "
                f"0..{n - 1} (the done-flag array and state slots index by id)",
                tile.id,
            )
        for dep in tile.deps:
            if not 0 <= dep < n:
                yield _finding(
                    graph,
                    "PLAN001",
                    f"tile {tile.id} depends on {dep}, which does not exist "
                    f"(graph has {n} tiles)",
                    tile.id,
                )
            elif dep >= tile.id:
                kind = "itself" if dep == tile.id else f"later tile {dep}"
                yield _finding(
                    graph,
                    "PLAN001",
                    f"tile {tile.id} depends on {kind}: edges must point at "
                    f"smaller ids so every id-order walk is topological; this "
                    f"is the IR's only way to express a cycle",
                    tile.id,
                )
        if tile.owner == DYNAMIC:
            if graph.kind in STATIC_KINDS:
                yield _finding(
                    graph,
                    "PLAN003",
                    f"tile {tile.id} is cursor-claimed (DYNAMIC) inside the "
                    f"static {graph.kind!r} schedule: its runtime keeps "
                    f"state and emits results per rank, and no rank owns it",
                    tile.id,
                )
        elif not 0 <= tile.owner < graph.n_procs:
            yield _finding(
                graph,
                "PLAN003",
                f"tile {tile.id} owner {tile.owner} is outside ranks "
                f"0..{graph.n_procs - 1}: no pool worker would run it",
                tile.id,
            )
    if graph.kind == "wavefront" and graph.tiles:
        missing = sorted(set(range(graph.n_procs)) - {t.owner for t in graph.tiles})
        if missing:
            yield _finding(
                graph,
                "PLAN003",
                f"ranks {missing} own no tiles: the wave-front column "
                f"partition assigns every rank a slice, so their columns "
                f"would never be computed",
            )


# -- PLAN004: cell-count conservation vs the partition geometry ------------


def _check_bounds_cover(
    graph: TaskGraph, bounds, extent: int, what: str
) -> Iterator[Finding]:
    cursor = 0
    for b0, b1 in bounds:
        if b0 != cursor:
            yield _finding(
                graph,
                "PLAN004",
                f"{what} bounds jump from {cursor} to {b0}: "
                f"{'overlap' if b0 < cursor else 'gap'} in the partition",
            )
        cursor = b1
    if bounds and cursor != extent:
        yield _finding(
            graph,
            "PLAN004",
            f"{what} bounds end at {cursor} but the matrix extends to {extent}",
        )


def _check_cells(graph: TaskGraph) -> Iterator[Finding]:
    rows, cols = graph.shape
    if graph.kind == "wavefront":
        slices = graph.params.get("slices")
        if slices is None:
            yield _finding(graph, "PLAN004", "wavefront params carry no 'slices'")
            return
        yield from _check_bounds_cover(graph, slices, cols, "column")
        per_rank: dict[int, list[tuple[int, int]]] = {}
        for tile in graph.tiles:
            lo, hi, c0, c1 = tile.payload
            expected = (hi - lo) * (c1 - c0)
            if tile.cells != expected:
                yield _finding(
                    graph,
                    "PLAN004",
                    f"tile {tile.id} claims {tile.cells} cells but its payload "
                    f"covers rows [{lo},{hi}) x cols [{c0},{c1}) = {expected}",
                    tile.id,
                )
            if tile.owner != DYNAMIC and 0 <= tile.owner < len(slices):
                if (c0, c1) != tuple(slices[tile.owner]):
                    yield _finding(
                        graph,
                        "PLAN004",
                        f"tile {tile.id} covers cols [{c0},{c1}) but rank "
                        f"{tile.owner}'s slice is {tuple(slices[tile.owner])}",
                        tile.id,
                    )
            per_rank.setdefault(tile.owner, []).append((lo, hi))
        # Every rank sweeps its column slice through all the rows; a gap in
        # any rank's row groups is a horizontal stripe of its slice that is
        # never computed.
        for rank, groups in sorted(per_rank.items()):
            yield from _check_bounds_cover(
                graph, groups, rows, f"rank {rank}'s row-group"
            )
    elif graph.kind in ("blocked", "preprocess"):
        row_bounds = graph.params.get("row_bounds")
        col_bounds = graph.params.get("col_bounds")
        if row_bounds is None or col_bounds is None:
            yield _finding(
                graph, "PLAN004", f"{graph.kind} params carry no row/col bounds"
            )
            return
        yield from _check_bounds_cover(graph, row_bounds, rows, "row")
        yield from _check_bounds_cover(graph, col_bounds, cols, "column")
        seen: set[tuple[int, int]] = set()
        for tile in graph.tiles:
            band, block = tile.payload
            if not (0 <= band < len(row_bounds) and 0 <= block < len(col_bounds)):
                yield _finding(
                    graph,
                    "PLAN004",
                    f"tile {tile.id} addresses band {band}, block {block} "
                    f"outside the {len(row_bounds)}x{len(col_bounds)} tiling",
                    tile.id,
                )
                continue
            if (band, block) in seen:
                yield _finding(
                    graph,
                    "PLAN004",
                    f"band {band}, block {block} is covered twice "
                    f"(second time by tile {tile.id})",
                    tile.id,
                )
            seen.add((band, block))
            r0, r1 = row_bounds[band]
            c0, c1 = col_bounds[block]
            expected = (r1 - r0) * (c1 - c0)
            if tile.cells != expected:
                yield _finding(
                    graph,
                    "PLAN004",
                    f"tile {tile.id} claims {tile.cells} cells but band "
                    f"{band} x block {block} spans {expected}",
                    tile.id,
                )
        expected_tiles = len(row_bounds) * len(col_bounds)
        if len(seen) != expected_tiles:
            yield _finding(
                graph,
                "PLAN004",
                f"{expected_tiles - len(seen)} of {expected_tiles} band x "
                f"block positions are never computed",
            )
    elif graph.kind == "search":
        yield from _check_search_cells(graph)
    elif graph.kind == "phase2":
        yield from _check_phase2_cells(graph)


def _check_phase2_cells(graph: TaskGraph) -> Iterator[Finding]:
    queue = graph.params.get("regions", ())
    for tile in graph.tiles:
        slot, (_score, s0, s1, t0, t1) = tile.id, tile.payload
        area = (s1 - s0) * (t1 - t0)
        if tile.cells != area:
            yield _finding(
                graph,
                "PLAN004",
                f"tile {slot} claims {tile.cells} cells but its region spans {area}",
                slot,
            )
        if slot >= len(queue) or tile.payload != queue[slot]:
            yield _finding(
                graph,
                "PLAN004",
                f"tile {slot} aligns {tile.payload}, not queue slot {slot}: "
                f"each slot must be aligned exactly once, in queue order",
                slot,
            )
        if tile.owner != slot % graph.n_procs:
            yield _finding(
                graph,
                "PLAN004",
                f"tile {slot} is owned by rank {tile.owner}, but the scattered "
                f"mapping gives slot {slot} to rank {slot % graph.n_procs}",
                slot,
            )
    if len(graph.tiles) < len(queue):
        missing = list(range(len(graph.tiles), len(queue)))
        yield _finding(
            graph, "PLAN004", f"queue slots {missing} are never aligned: no record"
        )


def _check_search_cells(graph: TaskGraph) -> Iterator[Finding]:
    query_len = graph.params.get("query_len")
    if query_len is None:
        yield _finding(graph, "PLAN004", "search params carry no 'query_len'")
        return
    scorer: dict[int, int] = {}  # db index -> the first tile scoring it
    for tile in graph.tiles:
        lengths, indices = tile.payload[3], tile.payload[4]
        expected = query_len * sum(lengths)
        if tile.cells != expected:
            yield _finding(
                graph,
                "PLAN004",
                f"tile {tile.id} claims {tile.cells} cells but its "
                f"{len(lengths)} lanes cover {expected}",
                tile.id,
            )
        # exactly once: a sequence in two lanes would be scored twice and
        # its duplicate could double up in the top-k merge
        seen: set[int] = set()
        again: dict[int, list[int]] = {}
        for index in indices:
            first = scorer.setdefault(index, tile.id)
            if first != tile.id or index in seen:
                again.setdefault(first, []).append(index)
            seen.add(index)
        for first, repeated in sorted(again.items()):
            yield _finding(
                graph,
                "PLAN004",
                f"tile {tile.id} re-aligns database sequence(s) {repeated} "
                f"that tile {first} aligns: each sequence must be scored in "
                f"exactly one lane of one tile",
                tile.id,
            )


# -- PLAN005: the pool handshake as a state machine ------------------------


def _check_deadlock(graph: TaskGraph) -> Iterator[Finding]:
    """Walk the worker/coordinator state machine to a fixpoint.

    One walk per rank over its id-ordered tiles, plus one for the job's
    claim cursor over the ``DYNAMIC`` tiles (search plans), which it hands
    out in id order; a walk may advance when every dependency's done flag
    is up (same-owner deps are satisfied by program order, cross-owner ones
    by the shared array; PLAN006 rejects dependencies of claimed tiles on
    the pool).  If no walk can advance while work remains, that is the
    deadlock the runtime would experience as a starved ``poll_until``.
    """
    # Skip the simulation if the structure is already broken in a way that
    # would make every step report the same PLAN001 breach again.
    tiles = graph.tiles
    n = len(tiles)
    by_pos = {tile.id: pos for pos, tile in enumerate(tiles)}
    if len(by_pos) != n or any(not 0 <= d < n for t in tiles for d in t.deps):
        return
    done = [False] * n
    walks = [graph.tiles_of(rank) for rank in range(graph.n_procs)]
    walks.append(graph.tiles_of(DYNAMIC))  # the claim cursor: id order
    cursors = [0] * len(walks)
    progress = True
    while progress:
        progress = False
        for w, walk in enumerate(walks):
            while cursors[w] < len(walk):
                tile = walk[cursors[w]]
                if any(not done[by_pos[d]] for d in tile.deps):
                    break
                done[by_pos[tile.id]] = True
                cursors[w] += 1
                progress = True
    for w, walk in enumerate(walks):
        if cursors[w] < len(walk):
            tile = walk[cursors[w]]
            blocked_on = [d for d in tile.deps if not done[by_pos[d]]]
            who = f"worker {w}" if w < graph.n_procs else "the claim cursor"
            yield _finding(
                graph,
                "PLAN005",
                f"{who} deadlocks at tile {tile.id}: dependency "
                f"{blocked_on} can never complete (the done-flag poll would "
                f"starve until the job timeout)",
                tile.id,
            )


# -- PLAN006: backend legality ---------------------------------------------


def _check_backend(graph: TaskGraph, backend: str) -> Iterator[Finding]:
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    known = STATIC_KINDS + ("search",)
    if graph.kind not in known:
        yield _finding(
            graph,
            "PLAN006",
            f"unknown plan kind {graph.kind!r}: no runtime or choreography "
            f"exists for it (known: {', '.join(known)})",
        )
        return
    if backend == "pool":
        if graph.kind == "search":
            for tile in graph.tiles:
                if tile.deps:
                    yield _finding(
                        graph,
                        "PLAN006",
                        f"search tile {tile.id} depends on tiles "
                        f"{list(tile.deps)}: a tile claimed from the pool's "
                        f"cursor waits on no done flags, so a worker may run "
                        f"it before they finish",
                        tile.id,
                    )
        elif graph.spec is None:
            yield _finding(
                graph,
                "PLAN006",
                f"pool execution of a {graph.kind!r} graph needs a rebuildable "
                f"PlanSpec (workers ship the spec, not thousands of tiles)",
            )


def verify_graph(graph: TaskGraph, backend: str = "inline") -> list[Finding]:
    """Every invariant breach in ``graph`` for ``backend``, as findings."""
    findings: list[Finding] = []
    findings.extend(_check_structure(graph))
    findings.extend(_check_cells(graph))
    findings.extend(_check_deadlock(graph))
    findings.extend(_check_backend(graph, backend))
    return sorted(findings)


def verify_plan(
    spec: PlanSpec | TaskGraph,
    rows: Optional[int] = None,
    cols: Optional[int] = None,
    backend: str = "inline",
) -> list[Finding]:
    """Verify a spec (built at ``rows x cols``) or an already-built graph."""
    if isinstance(spec, TaskGraph):
        return verify_graph(spec, backend)
    if rows is None or cols is None:
        raise ValueError("verifying a PlanSpec needs the (rows, cols) to build at")
    return verify_graph(build_plan(spec, rows, cols), backend)


# -- strict mode -----------------------------------------------------------

_strict: Optional[bool] = None


def set_strict(enabled: Optional[bool]) -> None:
    """Force strict mode on/off (``None`` = defer to ``REPRO_VERIFY_PLANS``)."""
    global _strict
    _strict = enabled


def is_strict() -> bool:
    if _strict is not None:
        return _strict
    return os.environ.get(_ENV_FLAG, "").strip() not in ("", "0", "false")


#: Recent verdicts of :func:`maybe_verify`, keyed by everything
#: :func:`verify_graph` reads, so an edited graph is a new key.
_VERDICTS: "OrderedDict[tuple, list[Finding]]" = OrderedDict()
_VERDICT_SLOTS = 32


def _verdict_key(graph: TaskGraph, backend: str) -> Optional[tuple]:
    """The full input of ``verify_graph(graph, backend)``, hashable.

    Tiles are nested tuples (hashed and compared in C); ``params`` goes in
    pickled.  None when the params do not pickle: then nothing is cached.
    """
    try:
        params = pickle.dumps(graph.params, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
    return (
        backend,
        graph.kind,
        graph.n_procs,
        graph.shape,
        graph.tiles,
        params,
        graph.spec is None,
    )


def maybe_verify(graph: TaskGraph, backend: str) -> None:
    """The executors' strict-mode hook: verify-or-raise, off by default.

    Verification is O(tiles) -- the same order as dispatching the graph --
    so strict mode stays affordable even inline; it is still opt-in because
    the planners' own outputs are verified exhaustively in CI
    (``repro check --plans``) and re-proving each production run is only
    worth it when debugging a new planner or executor.

    Verdicts are cached by the graph's full content: with the compiled tile
    kernels a repeated run of one plan (a pool serving requests, an inline
    benchmark loop) is short enough that proving the same graph again on
    every run would cost several percent of it.
    """
    if not is_strict():
        return
    key = _verdict_key(graph, backend)
    findings = _VERDICTS.get(key) if key is not None else None
    if findings is None:
        findings = verify_graph(graph, backend)
        if key is not None:
            _VERDICTS[key] = findings
            if len(_VERDICTS) > _VERDICT_SLOTS:
                _VERDICTS.popitem(last=False)
    if findings:
        raise PlanVerificationError(findings)


# -- the CI sweep ----------------------------------------------------------


def _sweep_pair_specs(n_procs: int) -> Iterator[PlanSpec]:
    yield wavefront_spec(n_procs, group_rows=3)
    yield wavefront_spec(n_procs, group_rows=1)
    yield blocked_spec(n_procs, n_bands=5, n_blocks=4)
    yield blocked_spec(n_procs, n_bands=2, n_blocks=7)
    yield preprocess_spec(n_procs, band_size=16, chunk_size=24)
    yield preprocess_spec(
        n_procs,
        band_size=13,
        chunk_size=9,
        band_scheme="equal",
        chunk_growth="geometric",
    )
    # more queue slots than ranks, and not a multiple of them
    yield phase2_spec(
        n_procs, [(10 + i, 3 * i, 3 * i + 20 + i, 4 * i, 4 * i + 30) for i in range(7)]
    )


def _sweep_packed(seed: int = 7):
    """A small deterministic packed database for the search sweeps."""
    from ..seq.db import pack_database

    rng = np.random.default_rng(seed)
    records = [
        (f"seq{i}", rng.integers(0, 4, size=int(length), dtype=np.uint8))
        for i, length in enumerate(rng.integers(40, 200, size=24))
    ]
    return pack_database(records, max_lanes=8)


def sweep_plans(
    n_procs: int = 4,
    shape: tuple[int, int] = (96, 128),
    kernels: Sequence[str] = ("classic", "striped"),
) -> list[tuple[str, str, Finding]]:
    """Verify every planner x backend combination, and every search kernel.

    Returns ``(plan description, backend, finding)`` triples -- empty when
    every combination proves out, which is what CI's ``check --plans`` job
    gates on.
    """
    rows, cols = shape
    breaches: list[tuple[str, str, Finding]] = []
    for spec in _sweep_pair_specs(n_procs):
        graph = build_plan(spec, rows, cols)
        label = spec.kind
        for backend in BACKENDS:
            for finding in verify_graph(graph, backend):
                breaches.append((label, backend, finding))
    packed = _sweep_packed()
    for kernel in kernels:
        graph = plan_search_buckets(packed, query_len=120, top_k=5, kernel=kernel)
        for backend in BACKENDS:
            for finding in verify_graph(graph, backend):
                breaches.append((f"search[{kernel}]", backend, finding))
    return breaches

"""Simulated execution of task graphs: DSM choreography + virtual clock.

:class:`SimExecutor` runs any sequence-pair plan on the simulated JIAJIA
cluster.  The *kernel* work of every tile is delegated to the same
:mod:`repro.plan.runtime` objects the real backends drive -- so the regions a
simulated run reports are bitwise identical to the inline and pool backends
-- while the DSM protocol costs (locks, condition variables, page faults,
release diffs, gather messages, disk I/O) are charged to the virtual clock
exactly as the paper's three strategies and its phase 2 describe:

* ``wavefront`` -- Section 4.2's per-row border exchange with the
  read-acknowledge handshake ("processor 0 waits on a condition variable in
  order to guarantee that the preceding value has already been read");
* ``blocked`` -- Section 4.3's buffered passage rows, one communication per
  block, no acknowledge;
* ``preprocess`` -- Section 5's chunk pipeline with the result-matrix
  scoreboard, column saving and the none/immediate/deferred I/O modes;
* ``phase2`` -- Section 4.4's scattered mapping: each node reads its queue
  slots and writes its records, with no lock or condition variable.

Dependency order inside the simulation needs no extra machinery: every
cross-owner edge in the graph corresponds to a ``waitcv`` the node performs
before running the tile, so the discrete-event scheduler interleaves the
node generators in an order that satisfies the graph by construction.

The executor accepts graphs whose tiles are charged at *nominal* scale
(``scale >= 1``): kernels run on the actual sequences while the virtual
clock is charged ``scale**2`` cells per actual cell, the
:class:`~repro.strategies.base.ScaledWorkload` aggregation.
"""

from __future__ import annotations

import numpy as np

from ..core.alignment import LocalAlignment
from ..dsm.jiajia import JiaJia
from ..sim.costmodel import DEFAULT_COST_MODEL, CostModel
from ..sim.disk import NfsDisk
from ..sim.engine import Delay, Simulator
from ..sim.stats import PhaseTimes
from .executors import Executor, run_tile_traced
from .ir import TaskGraph
from .result import StrategyResult
from .runtime import PlanRuntime, finalize_plan, make_runtime

#: Plan kind -> the paper's strategy name (what results are reported as).
PAPER_NAMES = {
    "wavefront": "heuristic",
    "blocked": "heuristic_block",
    "preprocess": "pre_process",
    "phase2": "phase2",
}

#: Bytes of one phase-2 queue entry (begin/end coordinates + score, §4.4).
QUEUE_ENTRY_BYTES = 32


def serial_phase2_time(
    regions: list[LocalAlignment], cost: CostModel = DEFAULT_COST_MODEL
) -> float:
    """Virtual time of aligning every pair on one node (no DSM costs)."""
    return sum(r.s_length * r.t_length for r in regions) * cost.nw_cell_time


# Lock / condition-variable id spaces (disjoint per strategy, as before).
def _edge_lock(p: int) -> int:
    return 100 + p


def _cv_data(p: int) -> int:
    return 200 + p  # data-ready, signalled by p to p+1


def _cv_ack(p: int) -> int:
    return 300 + p  # read-acknowledge, signalled by p+1 back to p


def _band_lock(band: int) -> int:
    return 500 + band


def _cv_block(band: int, block: int, n_blocks: int) -> int:
    return 1000 + band * n_blocks + block


def _pre_band_lock(band: int) -> int:
    return 10_000 + band


def _cv_chunk(band: int, chunk: int, n_chunks: int) -> int:
    return 20_000 + band * n_chunks + chunk


class SimExecutor(Executor):
    """Execute a plan on the simulated cluster, charging the virtual clock.

    Tiles run their real kernels through :func:`run_tile_traced`, whose span
    is the *host* time; the virtual clock is charged by ``dsm.compute``.
    """

    BACKEND = "sim"

    def __init__(self, cost: CostModel = DEFAULT_COST_MODEL, timeline=None) -> None:
        self.cost = cost
        self.timeline = timeline

    def _execute(self, graph, s, t, scoring, scale) -> StrategyResult:
        runtime = make_runtime(graph, s, t, scoring)
        sim = Simulator(self.timeline)
        dsm = JiaJia(sim, graph.n_procs, self.cost)
        marks: dict[str, float] = {}
        if graph.kind == "search":
            return self._search_execute(graph, runtime, sim, dsm, scale, marks)
        choreography = {
            "wavefront": self._wavefront_nodes,
            "blocked": self._blocked_nodes,
            "preprocess": self._preprocess_nodes,
            "phase2": self._phase2_nodes,
        }[graph.kind]
        node, sim_extras = choreography(graph, runtime, sim, dsm, scale, marks)
        procs = [sim.spawn(node(p), name=f"node{p}") for p in range(graph.n_procs)]
        sim.run_all(procs)

        merged = finalize_plan(graph, [runtime.emit(p) for p in graph.owners()], scale)
        core_start = marks.get("core_start", 0.0)
        core_end = marks.get("core_end", sim.now)
        rows, cols = graph.shape
        return StrategyResult(
            name=PAPER_NAMES[graph.kind],
            n_procs=graph.n_procs,
            nominal_size=(rows * scale, cols * scale),
            total_time=sim.now,
            phases=PhaseTimes(
                init=core_start, core=core_end - core_start, term=sim.now - core_end
            ),
            stats=dsm.cluster_stats(),
            alignments=merged.alignments,
            extras={**merged.extras, **sim_extras()},
        )

    # -- Database search: the work-queue pull ------------------------------

    def _search_execute(self, graph, runtime, sim, dsm, scale, marks):
        """Simulate a search graph in virtual time.

        Node 0 pulls every tile off the work queue in id order.  Each tile
        costs one work-queue dispatch message plus its DP cells at
        ``search_cell_time``.
        """
        cost = self.cost
        stage_seconds: dict[str, float] = {}

        def node(p: int):
            yield Delay(cost.node_startup_time)
            yield from dsm.barrier(p)
            if p == 0:
                marks["core_start"] = sim.now
            for tile in graph.tiles if p == 0 else ():
                dispatch = cost.message_time(64)
                dsm.stats[p].record_message(64)
                dsm.stats[p].breakdown.add("communication", dispatch)
                yield Delay(dispatch)
                run_tile_traced(runtime, tile)
                charged = tile.cells * scale * scale
                seconds = charged * cost.search_cell_time
                stage_seconds["dp"] = stage_seconds.get("dp", 0.0) + seconds
                yield from dsm.compute(p, seconds, cells=charged)
            yield from dsm.barrier(p)
            if p == 0:
                marks["core_end"] = sim.now
            yield Delay(cost.node_teardown_time)
            yield from dsm.barrier(p)

        procs = [sim.spawn(node(p), name=f"node{p}") for p in range(graph.n_procs)]
        sim.run_all(procs)
        merged = finalize_plan(graph, [runtime.emit(p) for p in graph.owners()], scale)
        core_start = marks.get("core_start", 0.0)
        merged.extras["sim"] = {
            "total_time": sim.now,
            "core_seconds": marks.get("core_end", sim.now) - core_start,
            "stage_seconds": stage_seconds,
        }
        return merged

    # -- Section 4.2: wave-front without blocking factors -------------------

    def _wavefront_nodes(
        self,
        graph: TaskGraph,
        runtime: PlanRuntime,
        sim: Simulator,
        dsm: JiaJia,
        scale: int,
        marks: dict,
    ):
        cost = self.cost
        n_procs = graph.n_procs
        if graph.params["home_migration"]:
            dsm.config("home_migration", True)

        # The two shared DP rows, allocated at nominal size with JIAJIA's
        # round-robin homes: a processor's row-chunk writes are remote for
        # (P-1)/P of their pages, which is what the release diffs.
        bytes_per_cell = cost.shared_bytes_per_cell
        nominal_cols = graph.shape[1] * scale
        rows_region = dsm.alloc(2 * (nominal_cols + 1) * bytes_per_cell, "dp-rows")
        mine = [graph.tiles_of(p) for p in range(n_procs)]

        def node(p: int):
            yield Delay(cost.node_startup_time)
            yield from dsm.barrier(p)
            if p == 0:
                marks["core_start"] = sim.now

            for g, tile in enumerate(mine[p]):
                lo, hi, c0, c1 = tile.payload
                g_nominal = (hi - lo) * scale
                if p > 0:
                    yield from dsm.waitcv(p, _cv_data(p - 1), repeat=g_nominal)
                    yield from dsm.fault(p, pages=1, repeat=g_nominal)
                    yield from dsm.setcv(p, _cv_ack(p - 1), repeat=g_nominal)
                # real kernel over my slice of rows [lo, hi)
                run_tile_traced(runtime, tile)
                seconds = tile.cells * scale * scale * cost.heuristic_cell_time
                yield from dsm.compute(p, seconds, cells=tile.cells * scale * scale)
                # The writing row chunk is re-dirtied every nominal row.  A
                # producer flushes it at each per-row release (times = G);
                # the last processor never releases, so its dirty pages
                # coalesce until the final barrier flushes only the
                # last-written content once.
                if p < n_procs - 1:
                    dsm.write(
                        p,
                        rows_region,
                        (c0 * scale) * bytes_per_cell,
                        (c1 - c0) * scale * bytes_per_cell,
                        times=g_nominal,
                    )
                elif g == 0:
                    dsm.write(
                        p,
                        rows_region,
                        (c0 * scale) * bytes_per_cell,
                        (c1 - c0) * scale * bytes_per_cell,
                    )
                if p < n_procs - 1:
                    yield from dsm.lock(p, _edge_lock(p), repeat=g_nominal)
                    yield from dsm.unlock(p, _edge_lock(p), extra_releases=g_nominal - 1)
                    yield from dsm.setcv(p, _cv_data(p), repeat=g_nominal)
                    # The consumer acks immediately after *reading* (before
                    # its compute), so this wait does not serialise the
                    # pipeline; it is the paper's "guarantee that the
                    # preceding value has already been read".
                    yield from dsm.waitcv(p, _cv_ack(p), repeat=g_nominal)
            yield from dsm.barrier(p)
            if p == 0:
                marks["core_end"] = sim.now
            # gather: every node ships its queue to node 0
            if p != 0:
                n_found = runtime.open_region_count(p)
                yield from dsm.compute(p, 0.0)
                dsm.stats[p].record_message(64 + 32 * n_found)
                gather = cost.message_time(64 + 32 * n_found)
                dsm.stats[p].breakdown.add("communication", gather)
                yield Delay(gather)
            yield Delay(cost.node_teardown_time)
            yield from dsm.barrier(p)

        return node, dict

    # -- Section 4.3: wave-front with blocking factors ----------------------

    def _blocked_nodes(
        self,
        graph: TaskGraph,
        runtime: PlanRuntime,
        sim: Simulator,
        dsm: JiaJia,
        scale: int,
        marks: dict,
    ):
        cost = self.cost
        n_procs = graph.n_procs
        params = graph.params
        row_bounds, col_bounds = params["row_bounds"], params["col_bounds"]
        n_bands, n_blocks = params["n_bands"], params["n_blocks"]

        # One passage region per band boundary, homed at the consumer so
        # that the producer's writes are what the release diffs.
        border_bytes = cost.border_bytes_per_cell
        nominal_cols = graph.shape[1] * scale
        passage = [
            dsm.alloc(
                (nominal_cols + 1) * border_bytes,
                f"passage-{b}",
                home=(b + 1) % n_procs if b + 1 < n_bands else 0,
            )
            for b in range(n_bands)
        ]
        mine = [graph.tiles_of(p) for p in range(n_procs)]

        def node(p: int):
            yield Delay(cost.node_startup_time)
            yield from dsm.barrier(p)
            if p == 0:
                marks["core_start"] = sim.now

            for tile in mine[p]:
                band, block = tile.payload
                r0, r1 = row_bounds[band]
                c0, c1 = col_bounds[block]
                h, w = r1 - r0, c1 - c0
                if band > 0:
                    yield from dsm.waitcv(p, _cv_block(band - 1, block, n_blocks))
                    # passage pages are home-local to this consumer: the
                    # producer's diffs already delivered the data.
                run_tile_traced(runtime, tile)
                if w == 0 or h == 0:
                    continue
                yield from dsm.compute(
                    p,
                    tile.cells * scale * scale * cost.blocked_cell_time,
                    cells=tile.cells * scale * scale,
                )
                # publish the block's bottom row through the passage band
                if band + 1 < n_bands:
                    dsm.write(
                        p,
                        passage[band],
                        c0 * scale * border_bytes,
                        w * scale * border_bytes,
                    )
                    yield from dsm.lock(p, _band_lock(band))
                    yield from dsm.unlock(p, _band_lock(band))
                    yield from dsm.setcv(p, _cv_block(band, block, n_blocks))

            yield from dsm.barrier(p)
            if p == 0:
                marks["core_end"] = sim.now
            if p != 0:
                n_found = runtime.open_region_count(p)
                gather = cost.message_time(64 + 32 * n_found)
                dsm.stats[p].record_message(64 + 32 * n_found)
                dsm.stats[p].breakdown.add("communication", gather)
                yield Delay(gather)
            yield Delay(cost.node_teardown_time)
            yield from dsm.barrier(p)

        return node, dict

    # -- Section 5: pre_process with the result-matrix scoreboard -----------

    def _preprocess_nodes(
        self,
        graph: TaskGraph,
        runtime: PlanRuntime,
        sim: Simulator,
        dsm: JiaJia,
        scale: int,
        marks: dict,
    ):
        cost = self.cost
        n_procs = graph.n_procs
        params = graph.params
        row_bounds, col_bounds = params["row_bounds"], params["col_bounds"]
        n_bands, n_chunks = params["n_bands"], params["n_chunks"]
        io_mode = params["io_mode"]
        ip_save = params["save_interleave"]
        cache_friendly_rows = params["cache_friendly_rows"]
        cache_penalty = params["cache_penalty"]

        disks = [NfsDisk(cost.disk) for _ in range(n_procs)]
        border_bytes = cost.border_bytes_per_cell
        nominal_cols = graph.shape[1] * scale
        passage = [
            dsm.alloc(
                (nominal_cols + 1) * border_bytes,
                f"passage-{b}",
                home=(b + 1) % n_procs if b + 1 < n_bands else 0,
            )
            for b in range(n_bands)
        ]
        deferred_bytes = [0] * n_procs
        mine = [graph.tiles_of(p) for p in range(n_procs)]

        def cell_time(band_rows_nominal: int) -> float:
            base = cost.preprocess_cell_time
            if band_rows_nominal > cache_friendly_rows:
                return base * (1.0 + cache_penalty)
            return base

        def node(p: int):
            yield Delay(cost.node_startup_time)
            yield from dsm.barrier(p)
            if p == 0:
                marks["core_start"] = sim.now

            for tile in mine[p]:
                band, chunk = tile.payload
                r0, r1 = row_bounds[band]
                c0, c1 = col_bounds[chunk]
                h, w = r1 - r0, c1 - c0
                if band > 0:
                    yield from dsm.waitcv(p, _cv_chunk(band - 1, chunk, n_chunks))
                run_tile_traced(runtime, tile)
                yield from dsm.compute(
                    p,
                    tile.cells * scale * scale * cell_time(h * scale),
                    cells=tile.cells * scale * scale,
                )
                # column saving (Section 5: i != 0 and i % ip == 0)
                if io_mode != "none":
                    saved_cols = sum(
                        1 for j in range(c0, c1) if j != 0 and j % ip_save == 0
                    )
                    if saved_cols:
                        # one saved column is band_height nominal cells; the
                        # actual and nominal saved-column *counts* coincide
                        # because the interleave scales with the columns
                        nbytes = saved_cols * h * scale * cost.result_bytes_per_cell
                        dsm.stats[p].disk_bytes_written += nbytes
                        if io_mode == "immediate":
                            io_time = disks[p].write_time(sim.now, nbytes)
                            dsm.stats[p].breakdown.add("communication", io_time)
                            yield Delay(io_time)
                        else:
                            deferred_bytes[p] += nbytes
                if band + 1 < n_bands:
                    dsm.write(
                        p,
                        passage[band],
                        c0 * scale * border_bytes,
                        w * scale * border_bytes,
                    )
                    yield from dsm.lock(p, _pre_band_lock(band))
                    yield from dsm.unlock(p, _pre_band_lock(band))
                    yield from dsm.setcv(p, _cv_chunk(band, chunk, n_chunks))

            yield from dsm.barrier(p)
            if p == 0:
                marks["core_end"] = sim.now
            # termination: deferred I/O drains here (Section 5.1's term time)
            if io_mode == "deferred" and deferred_bytes[p]:
                stage = disks[p].write_time(sim.now, deferred_bytes[p])
                io_time = stage + disks[p].flush_time(sim.now + stage)
                dsm.stats[p].breakdown.add("communication", io_time)
                yield Delay(io_time)
            elif io_mode == "immediate":
                flush = disks[p].flush_time(sim.now)
                dsm.stats[p].breakdown.add("communication", flush)
                yield Delay(flush)
            yield Delay(cost.node_teardown_time)
            yield from dsm.barrier(p)

        def sim_extras() -> dict:
            return {"disk_bytes": [d.total_written for d in disks]}

        return node, sim_extras

    # -- Section 4.4: phase 2, the scattered mapping ------------------------

    def _phase2_nodes(self, graph, runtime, sim, dsm, scale, marks):
        """Node ``p`` reads queue slots ``p, p+P, ...``, aligns each pair and
        writes its record at the same scattered position of the shared result
        vector.  No startup or teardown delay: phase 2 runs on the nodes
        phase 1 left up."""
        if scale != 1:
            raise ValueError("phase 2 aligns actual regions only (scale=1)")
        cost = self.cost
        mine = [graph.tiles_of(p) for p in range(graph.n_procs)]
        queue = dsm.alloc(max(1, len(graph.tiles)) * QUEUE_ENTRY_BYTES, "queue")
        # one record: coordinates, score and the two aligned subsequences
        sizes = [24 + (e[2] - e[1]) + (e[4] - e[3]) for e in (t.payload for t in graph.tiles)]
        results = dsm.alloc(max(1, sum(sizes)), "results")
        offsets = np.cumsum([0] + sizes)

        def node(p: int):
            yield from dsm.barrier(p)
            if p == 0:
                marks["core_start"] = sim.now
            for tile in mine[p]:
                slot = tile.id
                yield from dsm.read(p, queue, slot * QUEUE_ENTRY_BYTES, QUEUE_ENTRY_BYTES)
                yield from dsm.compute(p, tile.cells * cost.nw_cell_time, cells=tile.cells)
                run_tile_traced(runtime, tile)
                dsm.write(p, results, int(offsets[slot]), sizes[slot])
            yield from dsm.barrier(p)  # flushes every node's result diffs
            if p == 0:
                marks["core_end"] = sim.now

        return node, dict

"""Plan-aware attribution: trace/graph reconciliation, stalls, gantt.

Two layers of coverage: synthetic payloads with hand-placed spans make the
classification and dedup rules deterministic, and real traced runs (inline
wavefront, pool wavefront, inline db-search) assert the acceptance
contract -- the numbers the report quotes reconcile exactly with the task
graph's ``total_cells`` / ``critical_path_cells``.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.obs.attrib import (
    MIN_STALL_SECONDS,
    STALL_CAUSES,
    attribute,
    events_of,
    payload_from_tracer,
    pick_plan,
    plan_spans,
    render_gantt,
)
from repro.plan import InlineExecutor, cached_plan, wavefront_spec
from repro.seq import encode, genome_pair, synthetic_database
from repro.strategies import SearchConfig, search_db


# --------------------------------------------------------------------------
# Synthetic payloads: deterministic classification rules
# --------------------------------------------------------------------------


def _ev(name: str, cat: str, process: str, start_s: float, dur_s: float, **args):
    """One Chrome-trace complete event (µs timestamps, args.process)."""
    return {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": start_s * 1e6,
        "dur": dur_s * 1e6,
        "pid": 1,
        "tid": 1,
        "args": {"process": process, **args},
    }


def _plan_ev(start_s, dur_s, kind="wavefront", process="coordinator", **extra):
    args = {
        "kind": kind,
        "tiles": extra.pop("tiles", 2),
        "cells": extra.pop("cells", 100),
        "critical_path_cells": extra.pop("critical_path_cells", 60),
        "n_procs": 2,
        "rows": 10,
        "cols": 10,
        "backend": extra.pop("backend", "pool"),
        **extra,
    }
    return _ev(f"plan:{kind}", "coordination", process, start_s, dur_s, **args)


def _tile_ev(process, start_s, dur_s, tile, cells=50, kind="wavefront"):
    return _ev(
        "rows",
        "computation",
        process,
        start_s,
        dur_s,
        tile=tile,
        owner=0,
        kind=kind,
        cells=cells,
        kernel="classic",
        dtype="int32",
    )


class TestPlanSpanDiscovery:
    def test_sequential_runs_both_kept_and_pick_prefers_cells(self):
        payload = {
            "traceEvents": [
                _plan_ev(0.0, 1.0, cells=100),
                _plan_ev(2.0, 1.0, cells=900),
            ]
        }
        events = events_of(payload)
        assert len(plan_spans(events)) == 2
        assert pick_plan(events).args["cells"] == 900
        assert pick_plan(events, pick=0).args["cells"] == 100

    def test_no_plan_span_raises(self):
        with pytest.raises(ValueError, match="no plan"):
            attribute({"traceEvents": [_tile_ev("w", 0.0, 0.1, tile=0)]})


class TestStallClassification:
    def _payload(self):
        return {
            "traceEvents": [
                _plan_ev(0.0, 1.0),
                _ev("shm_publish", "communication", "coordinator", 0.0, 0.08),
                _tile_ev("worker-0", 0.1, 0.2, tile=0),
                _tile_ev("worker-0", 0.6, 0.2, tile=1),
                _ev("tile_wait", "communication", "worker-0", 0.35, 0.2, tile=1, dep=0),
            ]
        }

    def test_causes(self):
        a = attribute(self._payload())
        by_start = {round(s.start, 2): s.cause for s in a.stalls}
        assert by_start[0.0] == "arena_publish"  # leading gap over shm_publish
        assert by_start[0.3] == "dependency_wait"  # overlaps the tile_wait
        assert by_start[0.8] == "result_drain"  # trailing gap
        assert all(s.cause in STALL_CAUSES for s in a.stalls)

    def test_interior_gap_of_search_is_queue_starvation(self):
        payload = {
            "traceEvents": [
                _plan_ev(0.0, 1.0, kind="search"),
                _tile_ev("worker-0", 0.0, 0.2, tile=0, kind="search"),
                _tile_ev("worker-0", 0.5, 0.5, tile=1, kind="search"),
            ]
        }
        a = attribute(payload)
        assert [s.cause for s in a.stalls] == ["queue_starvation"]

    def test_sub_threshold_gaps_dropped(self):
        payload = {
            "traceEvents": [
                _plan_ev(0.0, 0.40005),
                _tile_ev("worker-0", 0.0, 0.2, tile=0),
                # 50 µs gap: under the 100 µs default threshold
                _tile_ev("worker-0", 0.20005, 0.2, tile=1),
            ]
        }
        assert attribute(payload).stalls == []
        assert len(attribute(payload, min_stall=MIN_STALL_SECONDS / 10).stalls) == 1


class TestSyntheticAccounting:
    def test_cells_and_chain_without_graph(self):
        # No spec args -> no rebuild: achieved chain = heaviest single tile.
        payload = {
            "traceEvents": [
                _plan_ev(0.0, 1.0),
                _tile_ev("worker-0", 0.0, 0.3, tile=0, cells=60),
                _tile_ev("worker-1", 0.0, 0.5, tile=1, cells=40),
            ]
        }
        a = attribute(payload)
        assert a.cells_traced == 100 == a.cells_planned
        assert a.busy_seconds == pytest.approx(0.8)
        assert a.achieved_critical_seconds == pytest.approx(0.5)
        # theoretical = cp_cells / (cells/busy) = 60 / 125 cells/s
        assert a.theoretical_critical_seconds == pytest.approx(60 / 125.0)
        assert {w.process: w.tiles for w in a.workers} == {
            "worker-0": 1,
            "worker-1": 1,
        }


# --------------------------------------------------------------------------
# Real runs: the acceptance reconciliation
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pair():
    gp = genome_pair(
        600, 600, n_regions=2, region_length=60, mutation_rate=0.02, rng=77
    )
    return encode(gp.s), encode(gp.t)


@pytest.fixture(scope="module")
def wavefront_graph(pair):
    s, t = pair
    return cached_plan(wavefront_spec(n_procs=2, group_rows=16), len(s), len(t))


@pytest.fixture(scope="module")
def inline_run(pair, wavefront_graph):
    s, t = pair
    with obs.observed() as (tracer, metrics):
        InlineExecutor().run(wavefront_graph, s, t)
    return payload_from_tracer(tracer, metrics)


class TestInlineAttribution:
    def test_reconciles_with_graph(self, wavefront_graph, inline_run):
        a = attribute(inline_run)
        assert a.kind == "wavefront" and a.backend == "inline"
        assert a.cells_traced == a.cells_planned == wavefront_graph.total_cells
        assert a.critical_path_cells == wavefront_graph.critical_path_cells()
        assert a.tiles_traced == a.tiles_planned == len(wavefront_graph.tiles)

    def test_chain_bounded_by_busy_and_wall(self, inline_run):
        a = attribute(inline_run)
        assert 0.0 < a.achieved_critical_seconds <= a.busy_seconds + 1e-9
        assert a.busy_seconds <= a.wall_seconds + 1e-9
        assert a.measured_gcups > 0.0

    def test_summary_is_json_safe_and_digest_stable(self, inline_run):
        a, b = attribute(inline_run), attribute(inline_run)
        assert a.spec_digest == b.spec_digest
        round_trip = json.loads(json.dumps(a.summary()))
        assert round_trip["cells_traced"] == a.cells_traced
        assert set(round_trip["stall_seconds_by_cause"]) == set(STALL_CAUSES)

    def test_render_mentions_the_numbers(self, inline_run):
        text = attribute(inline_run).render()
        assert "critical path" in text and "plan:wavefront" in text
        assert "coordinator" in text  # inline: the coordinator runs every tile


class TestPoolAttribution:
    @pytest.fixture(scope="class")
    def pool_run(self, pair, wavefront_graph):
        from repro.parallel import AlignmentWorkerPool

        s, t = pair
        with AlignmentWorkerPool(n_workers=2) as pool:
            with obs.observed() as (tracer, metrics):
                pool.run(wavefront_graph, s, t)
        return payload_from_tracer(tracer, metrics)

    def test_acceptance_reconciliation(self, wavefront_graph, pool_run):
        """The ISSUE's acceptance check for the pool wavefront run."""
        a = attribute(pool_run)
        assert a.backend == "pool"
        assert a.cells_traced == a.cells_planned == wavefront_graph.total_cells
        assert a.critical_path_cells == wavefront_graph.critical_path_cells()
        assert a.tiles_traced == len(wavefront_graph.tiles)
        assert {w.process for w in a.workers} == {"worker-0", "worker-1"}
        for w in a.workers:
            assert 0.0 < w.util_pct <= 100.0
        assert all(s.cause in STALL_CAUSES for s in a.stalls)

    def test_pool_run_stamps_one_plan_span(self, pool_run):
        # pool.run hands the graph to run_plan, which alone stamps the span.
        assert len(plan_spans(events_of(pool_run))) == 1

    def test_gantt_has_one_row_per_process(self, pool_run):
        chart = render_gantt(pool_run, width=40)
        assert "worker-0 |" in chart and "worker-1 |" in chart
        lines = [line for line in chart.splitlines() if "|" in line]
        assert all(line.count("|") == 2 for line in lines)


class TestSearchAttribution:
    def test_db_search_reconciles(self):
        """The ISSUE's acceptance check for the db-search run (inline)."""
        db = synthetic_database(n=20, min_length=60, max_length=120, rng=9)
        with obs.observed() as (tracer, metrics):
            search_db("ACGTACGTACGTACGTACGT", db, SearchConfig(top_k=5))
        a = attribute(payload_from_tracer(tracer, metrics))
        assert a.kind == "search"
        assert a.cells_traced == a.cells_planned > 0
        assert a.tiles_traced == a.tiles_planned > 0
        # search graphs have no edges: the chain is the heaviest tile
        assert 0.0 < a.achieved_critical_seconds <= a.busy_seconds + 1e-9

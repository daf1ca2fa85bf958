"""The static plan verifier: the sweep proves out, illegal graphs do not.

The acceptance bar mirrors the dataflow prover's: every planner x backend
combination (search: x kernel) the system can build must verify
clean, and hand-built graphs that break each invariant class -- cycle,
missing owner, cell-count mismatch, spec-less graph on the pool -- must be rejected
with findings precise enough to name the tile and the breach.  The graphs below are built
directly from ``Tile``/``TaskGraph`` (never through ``.validate()``), since
the verifier's job is exactly the graphs the constructor checks would have
refused plus the ones they cannot see.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.check.engine import Finding
from repro.plan import (
    DYNAMIC,
    InlineExecutor,
    PlanVerificationError,
    TaskGraph,
    Tile,
    plan_phase2,
    plan_wavefront,
    set_strict,
    sweep_plans,
    verify_graph,
    verify_plan,
    wavefront_spec,
)
from repro.plan.verify import _sweep_packed, is_strict, maybe_verify
from repro.plan.planners import plan_search_buckets
from repro.seq import encode, genome_pair


def rules_of(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


# -- the sweep: everything the planners can build proves out ---------------


def test_every_planner_backend_kernel_prefilter_combination_verifies():
    assert sweep_plans() == []


def test_verify_plan_builds_from_a_spec():
    spec = wavefront_spec(3, group_rows=4)
    assert verify_plan(spec, 48, 60, backend="pool") == []


def test_verify_plan_needs_a_shape_for_specs():
    with pytest.raises(ValueError, match="rows, cols"):
        verify_plan(wavefront_spec(2))


# -- illegal graphs, one per invariant class -------------------------------


def _blocked(tiles, n_procs=2, shape=(10, 10), **params):
    defaults = {
        "row_bounds": ((0, 5), (5, 10)),
        "col_bounds": ((0, 10),),
        "n_bands": 2,
        "n_blocks": 1,
    }
    defaults.update(params)
    return TaskGraph(
        kind="blocked", n_procs=n_procs, shape=shape, tiles=tuple(tiles),
        params=defaults,
    )


def test_cycle_is_rejected_and_deadlocks_the_simulation():
    # Tiles 0 and 1 depend on each other: inexpressible through validate(),
    # and exactly the graph whose done-flag polls starve forever.
    graph = _blocked(
        [Tile(0, 0, 50, (0, 0), (1,)), Tile(1, 1, 50, (1, 0), (0,))]
    )
    findings = verify_graph(graph, "pool")
    assert {"PLAN001", "PLAN005"} <= rules_of(findings)
    [deadlock] = [f for f in findings if f.rule == "PLAN005" and f.line == 0]
    assert "worker 0" in deadlock.message and "starve" in deadlock.message


def test_forward_dependency_is_a_plan001():
    graph = _blocked(
        [Tile(0, 0, 50, (0, 0), ()), Tile(1, 1, 50, (1, 0), (1,))]
    )
    findings = verify_graph(graph)
    assert any(f.rule == "PLAN001" and f.line == 1 for f in findings)
    assert any("itself" in f.message for f in findings)


def test_dangling_dependency_is_a_plan001():
    graph = _blocked(
        [Tile(0, 0, 50, (0, 0), ()), Tile(1, 1, 50, (1, 0), (7,))]
    )
    assert any(
        f.rule == "PLAN001" and "does not exist" in f.message
        for f in verify_graph(graph)
    )


def test_non_dense_ids_are_a_plan002():
    graph = _blocked(
        [Tile(0, 0, 50, (0, 0), ()), Tile(5, 1, 50, (1, 0), ())]
    )
    assert any(
        f.rule == "PLAN002" and "dense" in f.message for f in verify_graph(graph)
    )


def test_missing_owner_is_a_plan003():
    # Rank 2 of a 3-processor wave-front owns nothing: its column slice
    # would never be computed.
    slices = ((0, 4), (4, 8), (8, 12))
    tiles = [
        Tile(p, p, 16, (0, 4, *slices[p]), (p - 1,) if p else ())
        for p in range(2)
    ]
    graph = TaskGraph(
        kind="wavefront", n_procs=3, shape=(4, 12), tiles=tuple(tiles),
        params={"slices": slices, "group_rows": 4},
    )
    [finding] = verify_graph(graph)
    assert finding.rule == "PLAN003"
    assert "ranks [2]" in finding.message


def test_queue_owned_tile_in_a_static_schedule_is_a_plan003():
    graph = _blocked(
        [Tile(0, 0, 50, (0, 0), ()), Tile(1, DYNAMIC, 50, (1, 0), ())]
    )
    assert any(
        f.rule == "PLAN003" and "DYNAMIC" in f.message and f.line == 1
        for f in verify_graph(graph)
    )


def test_cell_count_mismatch_is_a_plan004():
    graph = _blocked(
        [Tile(0, 0, 50, (0, 0), ()), Tile(1, 1, 999, (1, 0), ())]
    )
    [finding] = verify_graph(graph)
    assert finding.rule == "PLAN004" and finding.line == 1
    assert "999" in finding.message and "50" in finding.message


def test_partition_gap_is_a_plan004():
    # Band 1 is never computed: a silent horizontal stripe of zeros.
    graph = _blocked([Tile(0, 0, 50, (0, 0), ())])
    findings = verify_graph(graph)
    assert any("never computed" in f.message for f in findings)
    assert rules_of(findings) == {"PLAN004"}


def test_dropped_search_lane_is_a_plan004():
    packed = _sweep_packed()
    graph = plan_search_buckets(packed, query_len=80, top_k=5)
    # Shave one lane off the last tile's selection by re-billing its cells
    # as if a lane were skipped -- the locator still promises all lanes.
    victim = graph.tiles[-1]
    lengths = victim.payload[3]
    short = victim.cells - 80 * lengths[-1]
    graph.tiles = graph.tiles[:-1] + (victim._replace(cells=short),)
    assert any(
        f.rule == "PLAN004" and f.line == victim.id
        for f in verify_graph(graph)
    )


def test_bucket_scanned_twice_is_a_plan004():
    packed = _sweep_packed()
    graph = plan_search_buckets(packed, query_len=80, top_k=5)
    dup = graph.tiles[0]._replace(id=len(graph.tiles))
    graph.tiles = graph.tiles + (dup,)
    assert any(
        f.rule == "PLAN004" and f.line == dup.id and "that tile 0 aligns" in f.message
        for f in verify_graph(graph)
    )


def test_sequence_scored_in_two_tiles_is_a_plan004():
    packed = _sweep_packed()
    graph = plan_search_buckets(packed, query_len=80, top_k=5)
    # Point tile 1's first lane at the sequence tile 0's first lane scores:
    # the cells still add up, but that sequence is now scored twice.
    t0, t1 = graph.tiles[0], graph.tiles[1]
    indices = (t0.payload[4][0],) + tuple(t1.payload[4][1:])
    graph.tiles = (t0, t1._replace(payload=t1.payload[:4] + (indices,))) + graph.tiles[2:]
    findings = verify_graph(graph)
    assert rules_of(findings) == {"PLAN004"}
    assert any(
        f.line == 1 and "that tile 0 aligns" in f.message and "exactly one lane" in f.message
        for f in findings
    )


def test_sequence_in_two_lanes_of_one_tile_is_a_plan004():
    packed = _sweep_packed()
    graph = plan_search_buckets(packed, query_len=80, top_k=5)
    victim = next(t for t in graph.tiles if t.payload[2] > 1)
    indices = (victim.payload[4][0],) * 2 + tuple(victim.payload[4][2:])
    tiles = list(graph.tiles)
    tiles[victim.id] = victim._replace(payload=victim.payload[:4] + (indices,))
    graph.tiles = tuple(tiles)
    assert any(
        f.rule == "PLAN004" and f.line == victim.id and "exactly one lane" in f.message
        for f in verify_graph(graph)
    )


def _phase2_graph():
    regions = [(30, 0, 40, 0, 50), (20, 10, 30, 5, 35), (10, 50, 60, 60, 64)]
    return plan_phase2(96, 128, n_procs=2, regions=regions)


def test_phase2_plan_verifies_on_every_backend():
    graph = _phase2_graph()
    for backend in ("inline", "pool", "sim"):
        assert verify_graph(graph, backend) == []


def test_phase2_cells_other_than_the_region_area_are_a_plan004():
    graph = _phase2_graph()
    victim = graph.tiles[1]
    graph.tiles = (graph.tiles[0], victim._replace(cells=7), graph.tiles[2])
    [finding] = verify_graph(graph)
    assert finding.rule == "PLAN004" and finding.line == 1
    assert "7 cells" in finding.message and "600" in finding.message


def test_phase2_dropped_or_repeated_slot_is_a_plan004():
    graph = _phase2_graph()
    graph.tiles = graph.tiles[:2]
    [finding] = verify_graph(graph)
    assert finding.rule == "PLAN004" and "slots [2] are never aligned" in finding.message
    graph = _phase2_graph()
    first = graph.tiles[0]
    graph.tiles = (first, first._replace(id=1, owner=1), graph.tiles[2])
    findings = verify_graph(graph)
    assert any(
        f.rule == "PLAN004" and f.line == 1 and "not queue slot 1" in f.message
        for f in findings
    )


def test_phase2_owner_off_the_scattered_mapping_is_a_plan004():
    graph = _phase2_graph()
    graph.tiles = (graph.tiles[0]._replace(owner=1),) + graph.tiles[1:]
    [finding] = verify_graph(graph)
    assert finding.rule == "PLAN004" and finding.line == 0
    assert "rank 1" in finding.message and "rank 0" in finding.message


def test_search_dependency_on_the_pool_is_a_plan006():
    packed = _sweep_packed()
    graph = plan_search_buckets(packed, query_len=80, top_k=5)
    tiles = list(graph.tiles)
    tiles[1] = tiles[1]._replace(deps=(0,))
    graph.tiles = tuple(tiles)
    assert any(
        f.rule == "PLAN006" and f.line == 1 and "no done flags" in f.message
        for f in verify_graph(graph, "pool")
    )
    # The same edge is harmless where one process runs the tiles in id order.
    assert verify_graph(graph, "inline") == []


def test_specless_pair_graph_on_the_pool_is_a_plan006():
    graph = plan_wavefront(12, 12, n_procs=2, group_rows=4)
    graph.spec = None
    assert verify_graph(graph, "inline") == []
    assert any(
        f.rule == "PLAN006" and "PlanSpec" in f.message
        for f in verify_graph(graph, "pool")
    )


def test_unknown_plan_kind_is_a_plan006():
    graph = TaskGraph(
        kind="mystery", n_procs=1, shape=(1, 1),
        tiles=(Tile(0, 0, 1, ()),),
    )
    assert any(
        f.rule == "PLAN006" and "mystery" in f.message
        for f in verify_graph(graph)
    )


# -- strict mode -----------------------------------------------------------


@pytest.fixture
def strict():
    set_strict(True)
    yield
    set_strict(None)


def test_strict_mode_defaults_off_and_obeys_the_env(monkeypatch):
    set_strict(None)
    monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
    assert not is_strict()
    monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
    assert is_strict()
    monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
    assert not is_strict()


def test_maybe_verify_is_inert_when_off(monkeypatch):
    set_strict(None)
    monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
    bad = _blocked([Tile(0, 0, 50, (0, 0), (0,))])
    maybe_verify(bad, "inline")  # no raise


def test_strict_executor_rejects_a_bad_graph_before_running_it(strict):
    graph = plan_wavefront(64, 64, n_procs=2, group_rows=16)
    broken = TaskGraph(
        kind=graph.kind, n_procs=graph.n_procs, shape=graph.shape,
        tiles=graph.tiles[:-1],  # drop the last tile: rank coverage breaks
        params=graph.params, spec=graph.spec,
    )
    gp = genome_pair(64, 64, n_regions=1, region_length=12, rng=5)
    s, t = encode(gp.s), encode(gp.t)
    with pytest.raises(PlanVerificationError) as err:
        InlineExecutor().run(broken, s, t)
    assert any(f.rule == "PLAN004" for f in err.value.findings)


def test_strict_executor_passes_a_good_graph(strict):
    graph = plan_wavefront(64, 64, n_procs=2, group_rows=16)
    gp = genome_pair(64, 64, n_regions=1, region_length=12, rng=5)
    result = InlineExecutor().run(graph, encode(gp.s), encode(gp.t))
    assert result.backend == "inline"


# -- overhead: strict verification under 2% of an inline align -------------


def test_strict_verification_overhead_under_2pct():
    from time import perf_counter

    assert not obs.is_enabled()
    n = 512
    gp = genome_pair(n, n, n_regions=1, region_length=60, mutation_rate=0.02, rng=33)
    s, t = encode(gp.s), encode(gp.t)
    graph = plan_wavefront(len(s), len(t), n_procs=2, group_rows=16)

    def timed(strict):
        set_strict(strict)
        t0 = perf_counter()
        InlineExecutor().run(graph, s, t)
        return perf_counter() - t0

    try:
        for _ in range(4):
            # Lax and strict runs alternate, so a host speed-regime flip
            # lands on both sides of the ratio instead of on one block.
            off, on = float("inf"), float("inf")
            for _ in range(5):
                off = min(off, timed(False))
                on = min(on, timed(True))
            if on <= off * 1.02:
                break
        else:
            pytest.fail(
                f"strict {on * 1e3:.3f} ms vs lax {off * 1e3:.3f} ms (>2%)"
            )
    finally:
        set_strict(None)

"""Section 7 extension: hierarchical execution on a heterogeneous cluster.

The paper closes with: "we intend to run this modified algorithm in order to
compare very long DNA sequences (larger than 1 MBP) in a heterogeneous
cluster.  In this case, message-passing will be used for inter-cluster
communication and DSM will be used for communicating processes that belong
to the same cluster."

This module implements that design point on the simulator: the similarity
matrix is split into column *super-slices*, one per sub-cluster; within a
sub-cluster the blocked DSM strategy runs unchanged, and the border columns
between sub-clusters travel as explicit messages over an inter-cluster link
(higher latency, independent bandwidth -- e.g. a campus backbone between
machine rooms).  Sub-clusters may be heterogeneous: each has its own node
count and CPU speed factor, and the column split is proportional to
aggregate compute power so the pipeline stays balanced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.alignment import AlignmentQueue
from ..core.engine import compute_tile
from ..core.kernels import SCORE_DTYPE
from ..core.regions import StreamingRegionFinder
from ..dsm.jiajia import JiaJia
from ..plan.partition import split_even
from ..plan.result import StrategyResult
from ..sim.costmodel import DEFAULT_COST_MODEL, CostModel
from ..sim.engine import Delay, Simulator
from ..sim.network import NetworkParams
from ..sim.resources import SimCondition
from ..sim.stats import ClusterStats, NodeStats, PhaseTimes
from .base import RegionSettings, ScaledWorkload


@dataclass(frozen=True)
class SubCluster:
    """One homogeneous machine group inside the heterogeneous system."""

    n_procs: int = 8
    speed: float = 1.0  # CPU speed multiplier vs the paper's Pentium II

    def __post_init__(self) -> None:
        if self.n_procs <= 0:
            raise ValueError("n_procs must be positive")
        if self.speed <= 0:
            raise ValueError("speed must be positive")

    @property
    def power(self) -> float:
        return self.n_procs * self.speed


@dataclass(frozen=True)
class HeteroConfig:
    """Run parameters of the hierarchical strategy."""

    clusters: tuple[SubCluster, ...] = (SubCluster(8, 1.0), SubCluster(4, 2.0))
    bands_per_proc: int = 5
    regions: RegionSettings = RegionSettings()
    #: Inter-cluster link: WAN-ish latency, own bandwidth.
    link: NetworkParams = field(
        default_factory=lambda: NetworkParams(latency=2e-3, bandwidth=6.25e6)
    )

    def __post_init__(self) -> None:
        if len(self.clusters) < 1:
            raise ValueError("need at least one sub-cluster")
        if self.bands_per_proc <= 0:
            raise ValueError("bands_per_proc must be positive")

    def column_split(self, n_cols: int) -> list[tuple[int, int]]:
        """Columns proportional to each sub-cluster's aggregate power."""
        total = sum(c.power for c in self.clusters)
        bounds = []
        start = 0
        for i, c in enumerate(self.clusters):
            if i == len(self.clusters) - 1:
                end = n_cols
            else:
                end = start + int(round(n_cols * c.power / total))
            bounds.append((start, min(end, n_cols)))
            start = bounds[-1][1]
        return bounds


def run_hetero(
    workload: ScaledWorkload,
    config: HeteroConfig | None = None,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> StrategyResult:
    """Simulate the hierarchical (message-passing + DSM) execution.

    Within a sub-cluster, bands are dealt round-robin over its nodes and the
    band boundaries move through its own JIAJIA instance; at a super-slice
    border, each finished band's right border column is sent to the next
    sub-cluster as one message over the inter-cluster link.
    """
    config = config or HeteroConfig()
    n_clusters = len(config.clusters)
    scale = workload.scale
    sim = Simulator()

    col_split = config.column_split(workload.cols)
    if any(hi - lo <= 0 for lo, hi in col_split):
        raise ValueError("workload too narrow for the sub-cluster split")

    # one DSM instance per sub-cluster; MPI-style link between them
    dsms = [JiaJia(sim, c.n_procs, cost) for c in config.clusters]
    n_bands = max(
        1, min(config.bands_per_proc * max(c.n_procs for c in config.clusters),
               workload.rows)
    )
    row_bounds = split_even(workload.rows, n_bands)

    # inter-cluster "MPI": per (cluster edge, band) condition + value buffer
    link_cv: dict[tuple[int, int], SimCondition] = {}
    link_cols: dict[tuple[int, int], np.ndarray] = {}

    def cv_for(edge: int, band: int) -> SimCondition:
        key = (edge, band)
        if key not in link_cv:
            link_cv[key] = SimCondition(sim, f"link-{edge}-{band}")
        return link_cv[key]

    boundaries = [
        [np.zeros(workload.cols + 1, dtype=SCORE_DTYPE) for _ in range(n_bands + 1)]
        for _ in range(n_clusters)
    ]
    finders: list[list[StreamingRegionFinder]] = [
        [] for _ in range(n_clusters)
    ]
    marks: dict[str, float] = {}
    link_time = lambda nbytes: config.link.latency + nbytes / config.link.bandwidth

    def node(ci: int, p: int):
        cluster = config.clusters[ci]
        dsm = dsms[ci]
        c_lo, c_hi = col_split[ci]
        t_slice_cols = (c_lo, c_hi)
        passage = node.passages[ci]
        yield Delay(cost.node_startup_time)
        yield from dsm.barrier(p)
        if ci == 0 and p == 0:
            marks["core_start"] = sim.now

        for band in range(n_bands):
            if band % cluster.n_procs != p:
                continue
            r0, r1 = row_bounds[band]
            h = r1 - r0
            if h == 0:
                continue
            # inter-cluster receive: the left super-slice's border column
            left_col = np.zeros(h, dtype=SCORE_DTYPE)
            if ci > 0:
                yield from cv_for(ci - 1, band).wait()
                nbytes = h * scale * cost.border_bytes_per_cell
                recv = link_time(nbytes)
                dsm.stats[p].breakdown.add("communication", recv)
                dsm.stats[p].record_message(nbytes)
                yield Delay(recv)
                left_col = link_cols[(ci - 1, band)]
            # intra-cluster wave-front over my super-slice (one tile per band
            # here; the fine-grained within-slice pipeline is run_blocked's
            # job and is summarised at band granularity for the hierarchy)
            if band > 0:
                yield from dsm.waitcv(p, 40_000 + band - 1)
            top = boundaries[ci][band][c_lo : c_hi + 1].copy()
            tile = compute_tile(
                top, left_col, workload.s[r0:r1], workload.t[c_lo:c_hi], workload.scoring
            )
            cells = h * (c_hi - c_lo)
            cell_time = cost.blocked_cell_time / cluster.speed
            # The band is spread over the sub-cluster's nodes by the inner
            # blocked pipeline; at this granularity the owner accounts the
            # divided compute plus the inner pipeline's fill/drain penalty
            # ((P-1) of the inner blocks are idle slots) and its per-block
            # DSM synchronisation.
            inner_blocks = config.bands_per_proc * cluster.n_procs
            seconds = cells * scale * scale * cell_time / cluster.n_procs
            fill = seconds * (cluster.n_procs - 1) / inner_blocks
            inner_sync = inner_blocks * (
                cost.cv_signal_time() + cost.cv_wait_time()
            ) / cluster.n_procs
            dsm.stats[p].breakdown.add("lock_cv", inner_sync)
            dsm.stats[p].breakdown.add("idle", fill)
            yield from dsm.compute(p, seconds, cells=cells * scale * scale)
            yield Delay(inner_sync + fill)
            boundaries[ci][band + 1][c_lo + 1 : c_hi + 1] = tile[-1, 1:]
            finder = StreamingRegionFinder(config.regions.region_config())
            finder.feed_rows(r0 + 1, tile)
            finders[ci].append(finder)
            if band + 1 < n_bands:
                dsm.write(
                    p, passage, c_lo * scale * cost.border_bytes_per_cell,
                    (c_hi - c_lo) * scale * cost.border_bytes_per_cell,
                )
                yield from dsm.lock(p, 30_000 + band)
                yield from dsm.unlock(p, 30_000 + band)
                yield from dsm.setcv(p, 40_000 + band)
            # inter-cluster send: my right border column to the next slice
            if ci < n_clusters - 1:
                link_cols[(ci, band)] = tile[:, -1].copy()
                nbytes = h * scale * cost.border_bytes_per_cell
                send = link_time(nbytes)
                dsm.stats[p].breakdown.add("communication", send)
                dsm.stats[p].record_message(nbytes)
                yield Delay(send)
                cv_for(ci, band).signal()

        yield from dsm.barrier(p)
        if ci == n_clusters - 1 and p == 0:
            marks["core_end"] = sim.now
        yield Delay(cost.node_teardown_time)
        yield from dsm.barrier(p)

    node.passages = [
        dsms[ci].alloc(
            (workload.nominal_cols + 1) * cost.border_bytes_per_cell, f"passage-{ci}"
        )
        for ci in range(n_clusters)
    ]
    procs = [
        sim.spawn(node(ci, p), name=f"c{ci}n{p}")
        for ci, cluster in enumerate(config.clusters)
        for p in range(cluster.n_procs)
    ]
    sim.run_all(procs)

    queue = AlignmentQueue()
    for ci, cluster_finders in enumerate(finders):
        c_lo = col_split[ci][0]
        for finder in cluster_finders:
            for region in finder.finish():
                a = region.as_alignment().shifted(0, c_lo)
                queue.push(workload.scale_alignment(a))
    alignments = queue.finalize(
        min_score=config.regions.admission_score,
        overlap_slack=config.regions.overlap_slack * scale,
        merge=True,
    )

    all_nodes: list[NodeStats] = []
    for dsm in dsms:
        all_nodes.extend(dsm.stats)
    core_start = marks.get("core_start", 0.0)
    core_end = marks.get("core_end", sim.now)
    return StrategyResult(
        name="hetero",
        n_procs=sum(c.n_procs for c in config.clusters),
        nominal_size=(workload.nominal_rows, workload.nominal_cols),
        total_time=sim.now,
        phases=PhaseTimes(init=core_start, core=core_end - core_start, term=sim.now - core_end),
        stats=ClusterStats(nodes=all_nodes),
        alignments=alignments,
        extras={"column_split": col_split, "n_bands": n_bands},
    )


def hetero_serial_time(
    workload: ScaledWorkload,
    config: HeteroConfig | None = None,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """Sequential baseline on the *fastest* single node of the system."""
    config = config or HeteroConfig()
    fastest = max(c.speed for c in config.clusters)
    return (
        cost.node_startup_time
        + workload.nominal_cells * cost.blocked_cell_time / fastest
        + cost.node_teardown_time
    )

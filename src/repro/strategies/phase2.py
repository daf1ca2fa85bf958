"""Phase 2 (Section 4.4): distributed global alignment of similar regions.

After phase 1 fills the alignment queue, "the queue alignment is treated as
a vector sorted by subsequence size and we use a scattered mapping approach
to assign similar regions to processors.  In this way, processor Pi is
responsible for accessing positions i, i+P, i+2P, ... of the vector
alignments.  This strategy eliminates the need for synchronization
operations such as those provided by locks and condition variables."  Each
processor runs Needleman-Wunsch on its pairs and writes the results (the
Fig. 16 records) into a shared vector at the same scattered positions.

Because the subsequences are short (~253 BP on average), this module runs
the *real* alignments -- no workload scaling -- and only the virtual clock
is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.alignment import LocalAlignment
from ..core.global_align import SubsequenceAlignment, align_region
from ..core.linear import nw_last_row
from ..core.scoring import DEFAULT_SCORING, Scoring
from ..dsm.jiajia import JiaJia
from ..plan.result import StrategyResult
from ..sim.costmodel import DEFAULT_COST_MODEL, CostModel
from ..sim.engine import Simulator
from ..sim.stats import PhaseTimes

#: Bytes of one queue entry (begin/end coordinates + score, Section 4.4).
QUEUE_ENTRY_BYTES = 32


@dataclass(frozen=True)
class Phase2Config:
    """Run parameters of the phase-2 scattered mapping."""

    n_procs: int = 8
    render: bool = True  # build full alignments (False: score-only, faster)

    def __post_init__(self) -> None:
        if self.n_procs <= 0:
            raise ValueError("n_procs must be positive")


def result_record_bytes(region: LocalAlignment) -> int:
    """Size of one phase-2 output record: coordinates, score, and the two
    globally-aligned subsequences."""
    return 24 + region.s_length + region.t_length


def run_phase2(
    s: np.ndarray,
    t: np.ndarray,
    regions: list[LocalAlignment],
    config: Phase2Config | None = None,
    cost: CostModel = DEFAULT_COST_MODEL,
    scoring: Scoring = DEFAULT_SCORING,
) -> StrategyResult:
    """Globally align every queue entry with the scattered mapping.

    ``extras['records']`` holds the computed :class:`SubsequenceAlignment`
    records in queue order (or ``(index, score)`` tuples when
    ``config.render`` is off).
    """
    config = config or Phase2Config()
    n_procs = config.n_procs
    # "the queue alignment is treated as a vector sorted by subsequence size"
    ordered = sorted(regions, key=lambda r: (-r.size, r.region))

    sim = Simulator()
    dsm = JiaJia(sim, n_procs, cost)
    queue_region = dsm.alloc(max(1, len(ordered)) * QUEUE_ENTRY_BYTES, "queue")
    records: list[SubsequenceAlignment | tuple[int, int] | None] = [None] * len(ordered)
    result_region = dsm.alloc(
        max(1, sum(result_record_bytes(r) for r in ordered)), "results"
    )
    offsets = np.cumsum([0] + [result_record_bytes(r) for r in ordered])
    marks: dict[str, float] = {}

    def node(p: int):
        yield from dsm.barrier(p)
        if p == 0:
            marks["core_start"] = sim.now
        for idx in range(p, len(ordered), n_procs):
            region = ordered[idx]
            yield from dsm.read(p, queue_region, idx * QUEUE_ENTRY_BYTES, QUEUE_ENTRY_BYTES)
            cells = region.s_length * region.t_length
            yield from dsm.compute(p, cells * cost.nw_cell_time, cells=cells)
            if config.render:
                records[idx] = align_region(s, t, region, scoring)
            else:
                score = int(
                    nw_last_row(
                        s[region.s_start : region.s_end],
                        t[region.t_start : region.t_end],
                        scoring,
                    )[-1]
                )
                records[idx] = (idx, score)
            dsm.write(
                p, result_region, int(offsets[idx]), result_record_bytes(region)
            )
        yield from dsm.barrier(p)  # flushes every node's result diffs
        if p == 0:
            marks["core_end"] = sim.now

    procs = [sim.spawn(node(p), name=f"node{p}") for p in range(n_procs)]
    sim.run_all(procs)

    core_start = marks.get("core_start", 0.0)
    core_end = marks.get("core_end", sim.now)
    return StrategyResult(
        name="phase2",
        n_procs=n_procs,
        nominal_size=(len(s), len(t)),
        total_time=sim.now,
        phases=PhaseTimes(init=core_start, core=core_end - core_start, term=sim.now - core_end),
        stats=dsm.cluster_stats(),
        alignments=list(ordered),
        extras={"records": records},
    )


def serial_phase2_time(
    regions: list[LocalAlignment], cost: CostModel = DEFAULT_COST_MODEL
) -> float:
    """Virtual time of aligning every pair on one node (no DSM costs)."""
    return sum(r.s_length * r.t_length for r in regions) * cost.nw_cell_time

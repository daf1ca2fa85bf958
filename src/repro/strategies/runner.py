"""End-to-end orchestration: phase 1 (find regions) + phase 2 (align them).

This is the "GenomeDSM" pipeline a user runs: pick a phase-1 strategy, get
the queue of similar regions, then globally align each region with the
scattered mapping of Section 4.4 and render Fig. 16-style records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.alignment import LocalAlignment
from ..core.global_align import SubsequenceAlignment
from ..core.scoring import DEFAULT_SCORING, Scoring
from ..obs import gcups, get_metrics, get_tracer, is_enabled
from ..obs.ledger import record_run
from ..obs.trace import Stopwatch
from ..plan import PlanSpec, SimExecutor, blocked_spec, plan_phase2, wavefront_spec
from ..plan.result import StrategyResult
from ..sim.costmodel import DEFAULT_COST_MODEL, CostModel
from .base import ScaledWorkload, encode_pair
from .blocked import BlockedConfig, blocked_plan, run_blocked
from .preprocess import PreprocessConfig, preprocess_plan, run_preprocess
from .wavefront import WavefrontConfig, run_wavefront, wavefront_plan

#: Phase-1 strategy registry (the paper's names).
STRATEGIES = ("heuristic", "heuristic_block", "pre_process")

#: Accepted alternative spellings -- the mp backends' names and common
#: variants -- mapped to the paper's canonical names.
STRATEGY_ALIASES = {
    "wavefront": "heuristic",
    "blocked": "heuristic_block",
    "preprocess": "pre_process",
    "pre-process": "pre_process",
}


def canonical_strategy(name: str) -> str:
    """Resolve any accepted strategy spelling to the paper's name."""
    if name in STRATEGIES:
        return name
    canonical = STRATEGY_ALIASES.get(name)
    if canonical is None:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {STRATEGIES} "
            f"or an alias in {tuple(STRATEGY_ALIASES)}"
        )
    return canonical


def run_phase1(
    workload: ScaledWorkload,
    strategy: str = "heuristic_block",
    config=None,
    cost: CostModel = DEFAULT_COST_MODEL,
    executor=None,
) -> StrategyResult:
    """Run one phase-1 strategy by name (paper names or mp aliases).

    With ``executor=None`` the run goes through the simulated cluster.  Any
    other :class:`repro.plan.Executor` (e.g. an
    :class:`~repro.plan.InlineExecutor`) receives the same planner-built
    task graph and executes it for real -- identical regions, wall-clock
    timing.
    """
    strategy = canonical_strategy(strategy)
    if executor is None:
        if strategy == "heuristic":
            return run_wavefront(workload, config, cost)
        if strategy == "heuristic_block":
            return run_blocked(workload, config, cost)
        return run_preprocess(workload, config, cost)
    planners = {
        "heuristic": (wavefront_plan, WavefrontConfig),
        "heuristic_block": (blocked_plan, BlockedConfig),
        "pre_process": (preprocess_plan, PreprocessConfig),
    }
    plan, default_config = planners[strategy]
    graph = plan(workload, config or default_config())
    return executor.run(
        graph, workload.s, workload.t, workload.scoring, scale=workload.scale
    )


@dataclass
class PipelineResult:
    """Both phases of one genome comparison.

    ``total_time`` is *virtual* cluster seconds from the cost model;
    ``wall_seconds`` is what this host actually spent running the simulation
    (measured by the observability stopwatch).  Keeping both as separate
    fields means reports can never conflate the two clocks.
    """

    phase1: StrategyResult
    phase2: StrategyResult
    records: list = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Why phase 2 ran on an empty region list, when it did (e.g. workload
    #: scaling leaves phase-1 regions in nominal coordinates).  ``None``
    #: when phase 2 saw the real region queue.
    phase2_skipped_reason: str | None = None

    @property
    def total_time(self) -> float:
        return self.phase1.total_time + self.phase2.total_time

    def best_records(self, k: int = 3) -> list[SubsequenceAlignment]:
        """The k highest-similarity phase-2 records (the Table 2 rows)."""
        rendered = [r for r in self.records if isinstance(r, SubsequenceAlignment)]
        return sorted(rendered, key=lambda r: -r.similarity)[:k]


def run_pipeline(
    s: np.ndarray,
    t: np.ndarray,
    strategy: str = "heuristic_block",
    n_procs: int = 8,
    scale: int = 1,
    phase1_config=None,
    cost: CostModel = DEFAULT_COST_MODEL,
    executor=None,
) -> PipelineResult:
    """Compare two genomes end to end on the simulated cluster.

    With ``scale == 1`` (the default) the phase-2 alignments are real; with
    workload scaling the phase-1 queue is in nominal coordinates, so phase 2
    runs on an empty region list and the result records why in
    ``phase2_skipped_reason``.  Pass an ``executor`` (e.g.
    :class:`repro.plan.InlineExecutor`) to run phase 1 for real instead of
    on the virtual cluster; phase 2 (:func:`repro.plan.plan_phase2` over
    ``n_procs`` nodes, rendered records) is always simulated.
    """
    strategy = canonical_strategy(strategy)
    workload = ScaledWorkload(s, t, scale=scale)
    if phase1_config is None:
        defaults = {
            "heuristic": WavefrontConfig(n_procs=n_procs),
            "heuristic_block": BlockedConfig(n_procs=n_procs),
            "pre_process": PreprocessConfig(n_procs=n_procs),
        }
        phase1_config = defaults.get(strategy)
    backend = "sim" if executor is None else executor.BACKEND
    tracer = get_tracer()
    with Stopwatch() as wall:
        with tracer.span("phase1", "phase", strategy=strategy, backend=backend):
            phase1 = run_phase1(workload, strategy, phase1_config, cost, executor)
        regions = [r for r in phase1.alignments if r.s_length and r.t_length]
        phase2_skipped_reason = None
        if scale != 1:
            phase2_skipped_reason = (
                f"workload scaling (scale={scale}) leaves phase-1 regions in "
                "nominal coordinates with no actual sequence data behind them"
            )
            regions = []
        with tracer.span("phase2", "phase", regions=len(regions), backend=backend):
            graph = plan_phase2(
                len(workload.s), len(workload.t), n_procs=n_procs, regions=regions
            )
            phase2 = SimExecutor(cost).run(graph, workload.s, workload.t)
    record_run(
        f"align-{backend}",
        {
            "wall_seconds": wall.elapsed,
            "virtual_cluster_seconds": phase1.total_time + phase2.total_time,
        },
        config={
            "strategy": strategy,
            "backend": backend,
            "n_procs": n_procs,
            "scale": scale,
            "rows": len(s),
            "cols": len(t),
        },
    )
    return PipelineResult(
        phase1=phase1,
        phase2=phase2,
        records=phase2.extras.get("records", []),
        wall_seconds=wall.elapsed,
        phase2_skipped_reason=phase2_skipped_reason,
    )


#: Real-parallel (multiprocessing) phase-1 backends served by the pool.
MP_BACKENDS = ("wavefront", "blocked")

#: Canonical strategy name -> pool backend (pre_process has no real backend).
_MP_BY_STRATEGY = {"heuristic": "wavefront", "heuristic_block": "blocked"}


def _mp_backend(name: str) -> str:
    """Resolve an mp backend name or any strategy alias to the pool's name."""
    if name in MP_BACKENDS:
        return name
    canonical = canonical_strategy(name)
    backend = _MP_BY_STRATEGY.get(canonical)
    if backend is None:
        raise ValueError(
            f"strategy {canonical!r} has no real-parallel backend; "
            f"expected one of {MP_BACKENDS} (or the matching paper names)"
        )
    return backend


def pool_phase1_spec(backend: str, n_workers: int) -> PlanSpec:
    """The default phase-1 plan of :func:`run_mp_pipeline` for ``backend``:
    the Section 4.2 wave-front row by row, or the Section 4.3 blocked
    wave-front in 8 bands x 8 blocks; threshold 35 either way."""
    if _mp_backend(backend) == "wavefront":
        return wavefront_spec(n_procs=n_workers)
    return blocked_spec(n_procs=n_workers, n_bands=8, n_blocks=8)


@dataclass
class MpPipelineResult:
    """Both phases of one genome comparison on real worker processes.

    Unlike :class:`PipelineResult` the times here are *wall-clock* seconds on
    this host, not virtual cluster seconds.
    """

    backend: str
    n_workers: int
    regions: list[LocalAlignment]
    records: list[SubsequenceAlignment]
    phase1_seconds: float
    phase2_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.phase1_seconds + self.phase2_seconds

    def best_records(self, k: int = 3) -> list[SubsequenceAlignment]:
        """The k highest-similarity phase-2 records (the Table 2 rows)."""
        return sorted(self.records, key=lambda r: -r.similarity)[:k]


def run_mp_pipeline(
    s: np.ndarray,
    t: np.ndarray,
    backend: str = "wavefront",
    n_workers: int | None = None,
    pool=None,
    phase1_config: PlanSpec | None = None,
    scoring: Scoring = DEFAULT_SCORING,
) -> MpPipelineResult:
    """Compare two genomes end to end on real OS processes.

    ``backend`` picks the phase-1 strategy (``"wavefront"``/``"heuristic"``
    = Section 4.2, ``"blocked"``/``"heuristic_block"`` = Section 4.3; the
    paper names and the mp names are interchangeable); phase 2 always uses
    the scattered mapping of Section 4.4.  Pass an
    :class:`repro.parallel.AlignmentWorkerPool` as ``pool`` to reuse live
    workers across calls (the sequences are published to shared memory once
    and both phases run without a respawn); otherwise a pool of
    ``n_workers`` (default 2) is created for this call and torn down
    afterwards.  With a ``pool``, ``n_workers`` defaults to its worker count
    and any other value is rejected.

    ``phase1_config`` is the phase-1 :class:`repro.plan.PlanSpec` (default:
    :func:`pool_phase1_spec` over the pool's workers); its kind must match
    ``backend``.
    """
    s, t = encode_pair(s, t)
    backend = _mp_backend(backend)
    if phase1_config is not None and phase1_config.kind != backend:
        raise ValueError(
            f"phase1_config is a {phase1_config.kind!r} spec "
            f"but the backend is {backend!r}"
        )
    if pool is not None:
        if n_workers not in (None, pool.n_workers):
            raise ValueError(
                f"n_workers={n_workers} but the pool has {pool.n_workers} workers"
            )
        n_workers = pool.n_workers
    elif n_workers is None:
        n_workers = 2
    spec = phase1_config or pool_phase1_spec(backend, n_workers)
    from ..parallel import AlignmentWorkerPool  # local import: optional heavy dep chain

    owns = pool is None
    if pool is None:
        pool = AlignmentWorkerPool(n_workers=n_workers)
    tracer = get_tracer()
    phase1_cells = len(s) * len(t)
    try:
        with Stopwatch() as sw1, tracer.span(
            "phase1", "phase", backend=backend, cells=phase1_cells
        ):
            regions = pool.run_plan(spec, s, t, scoring=scoring).alignments
        alignable = [r for r in regions if r.s_length and r.t_length]
        phase2_cells = sum(
            (r.s_end - r.s_start) * (r.t_end - r.t_start) for r in alignable
        )
        with Stopwatch() as sw2, tracer.span(
            "phase2", "phase", regions=len(alignable), cells=phase2_cells
        ):
            records = pool.phase2(alignable, scoring=scoring)
    finally:
        if owns:
            pool.close()
    if is_enabled():
        metrics = get_metrics()
        metrics.gauge("phase1_seconds").set(sw1.elapsed)
        metrics.gauge("phase2_seconds").set(sw2.elapsed)
        metrics.gauge("phase1_gcups").set(gcups(phase1_cells, sw1.elapsed))
        metrics.gauge("phase2_gcups").set(gcups(phase2_cells, sw2.elapsed))
    record_run(
        f"align-{backend}",
        {
            "phase1_seconds": sw1.elapsed,
            "phase2_seconds": sw2.elapsed,
            "phase1_gcups": gcups(phase1_cells, sw1.elapsed),
            "phase2_gcups": gcups(phase2_cells, sw2.elapsed),
        },
        config={
            "backend": backend,
            "n_workers": pool.n_workers,
            "rows": len(s),
            "cols": len(t),
        },
    )
    return MpPipelineResult(
        backend=backend,
        n_workers=pool.n_workers,
        regions=regions,
        records=records,
        phase1_seconds=sw1.elapsed,
        phase2_seconds=sw2.elapsed,
    )

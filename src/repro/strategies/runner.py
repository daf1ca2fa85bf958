"""End-to-end orchestration: phase 1 (find regions) + phase 2 (align them).

This is the "GenomeDSM" pipeline a user runs: pick a phase-1 strategy, get
the queue of similar regions, then globally align each region with the
scattered mapping of Section 4.4 and render Fig. 16-style records.  Both
phases are task graphs (:mod:`repro.plan`) and :func:`run_pipeline` runs
both on the one executor it is given: the simulated cluster (the default,
virtual cluster seconds), an :class:`~repro.plan.InlineExecutor` or a
persistent :class:`~repro.parallel.AlignmentWorkerPool` (wall seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.global_align import SubsequenceAlignment
from ..obs import gcups, get_metrics, get_tracer, is_enabled
from ..obs.ledger import record_run
from ..obs.trace import Stopwatch
from ..plan import ExecutionResult, SimExecutor, cached_plan, phase2_spec
from ..plan.result import StrategyResult
from ..sim.costmodel import DEFAULT_COST_MODEL, CostModel
from .base import ScaledWorkload
from .blocked import BlockedConfig, blocked_plan
from .preprocess import PreprocessConfig, preprocess_plan
from .wavefront import WavefrontConfig, wavefront_plan

#: Phase-1 strategy registry (the paper's names).
STRATEGIES = ("heuristic", "heuristic_block", "pre_process")

#: Accepted alternative spellings -- the plan kinds' names and common
#: variants -- mapped to the paper's canonical names.
STRATEGY_ALIASES = {
    "wavefront": "heuristic",
    "blocked": "heuristic_block",
    "preprocess": "pre_process",
    "pre-process": "pre_process",
}

#: Canonical strategy -> (planner, config class).
_PLANNERS = {
    "heuristic": (wavefront_plan, WavefrontConfig),
    "heuristic_block": (blocked_plan, BlockedConfig),
    "pre_process": (preprocess_plan, PreprocessConfig),
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
) -> StrategyResult | ExecutionResult:
    """Run one phase-1 strategy by name (paper names or their aliases).

    The strategy's planner builds the task graph from ``config`` (default:
    its config class's defaults) and ``executor`` runs it: the simulated
    cluster under ``cost`` when ``None``, or anything with the executor
    ``run`` signature (an :class:`~repro.plan.InlineExecutor`, an
    :class:`~repro.parallel.AlignmentWorkerPool`) for the same regions on
    the wall clock.
    """
    strategy = canonical_strategy(strategy)
    plan, config_type = _PLANNERS[strategy]
    config = config or config_type()
    if not isinstance(config, config_type):
        raise ValueError(
            f"phase-1 config is a {type(config).__name__} "
            f"but the strategy {strategy!r} takes a {config_type.__name__}"
        )
    return (executor or SimExecutor(cost)).run(
        plan(workload, config), workload.s, workload.t, workload.scoring, scale=workload.scale
    )


@dataclass
class PipelineResult:
    """Both phases of one genome comparison.

    ``phase1``/``phase2`` are the executor's results: on the simulated
    cluster their ``total_time`` is *virtual* cluster seconds from the cost
    model, on a real executor wall seconds.  ``phase1_seconds`` and
    ``phase2_seconds`` are what this host spent on each phase on every
    backend (the observability stopwatch), so reports can never conflate
    the two clocks.
    """

    phase1: StrategyResult | ExecutionResult
    phase2: StrategyResult | ExecutionResult
    records: list = field(default_factory=list)
    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
    #: Why phase 2 ran on an empty region list, when it did (e.g. workload
    #: scaling leaves phase-1 regions in nominal coordinates).  ``None``
    #: when phase 2 saw the real region queue.
    phase2_skipped_reason: str | None = None

    @property
    def wall_seconds(self) -> float:
        return self.phase1_seconds + self.phase2_seconds

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
    """Compare two genomes end to end: phase 1, then phase 2, on one executor.

    ``executor`` runs both phases: the simulated cluster under ``cost`` by
    default, or an :class:`~repro.plan.InlineExecutor` or an
    :class:`~repro.parallel.AlignmentWorkerPool` (whose worker count must
    equal ``n_procs``).  Phase 1 is ``strategy``'s plan over ``n_procs``
    processors (``phase1_config`` overrides its config), phase 2
    :func:`repro.plan.plan_phase2` over ``n_procs`` ranks; both graphs come
    from :func:`repro.plan.cached_plan`, so the pool's rebuild of either
    from its spec is a cache hit.  With
    ``scale == 1`` (the default) the phase-2 alignments are real; with
    workload scaling (simulator only) the phase-1 queue is in nominal
    coordinates, so phase 2 runs on an empty region list and the result
    records why in ``phase2_skipped_reason``.
    """
    strategy = canonical_strategy(strategy)
    workload = ScaledWorkload(s, t, scale=scale)
    executor = executor or SimExecutor(cost)
    backend = executor.BACKEND
    if phase1_config is None:
        phase1_config = _PLANNERS[strategy][1](n_procs=n_procs)
    tracer = get_tracer()
    phase1_cells = workload.rows * workload.cols
    with Stopwatch() as sw1, tracer.span(
        "phase1", "phase", strategy=strategy, backend=backend, cells=phase1_cells
    ):
        phase1 = run_phase1(workload, strategy, phase1_config, cost, executor)
    regions = [r for r in phase1.alignments if r.s_length and r.t_length]
    phase2_skipped_reason = None
    if scale != 1:
        phase2_skipped_reason = (
            f"workload scaling (scale={scale}) leaves phase-1 regions in "
            "nominal coordinates with no actual sequence data behind them"
        )
        regions = []
    phase2_cells = sum(r.s_length * r.t_length for r in regions)
    with Stopwatch() as sw2, tracer.span(
        "phase2", "phase", regions=len(regions), backend=backend, cells=phase2_cells
    ):
        graph = cached_plan(phase2_spec(n_procs, regions), workload.rows, workload.cols)
        phase2 = executor.run(graph, workload.s, workload.t, workload.scoring)
    rates = {
        "phase1_seconds": sw1.elapsed,
        "phase2_seconds": sw2.elapsed,
        "phase1_gcups": gcups(phase1_cells, sw1.elapsed),
        "phase2_gcups": gcups(phase2_cells, sw2.elapsed),
    }
    if is_enabled():
        metrics = get_metrics()
        for name, value in rates.items():
            metrics.gauge(name).set(value)
    if backend == "sim":
        rates["virtual_cluster_seconds"] = phase1.total_time + phase2.total_time
    record_run(
        f"align-{backend}",
        rates,
        config={
            "strategy": strategy,
            "backend": backend,
            "n_procs": n_procs,
            "scale": scale,
            "rows": workload.rows,
            "cols": workload.cols,
        },
    )
    return PipelineResult(
        phase1=phase1,
        phase2=phase2,
        records=phase2.extras.get("records", []),
        phase1_seconds=sw1.elapsed,
        phase2_seconds=sw2.elapsed,
        phase2_skipped_reason=phase2_skipped_reason,
    )


def run_mp_pipeline(
    s: np.ndarray,
    t: np.ndarray,
    backend: str = "wavefront",
    n_workers: int | None = None,
    pool=None,
    phase1_config=None,
) -> PipelineResult:
    """:func:`run_pipeline` on a persistent worker pool.

    ``pool`` is reused as is (``n_workers`` defaults to its worker count);
    without one, a pool of ``n_workers`` (default 2) is made for this call
    and closed afterwards.  ``backend`` names the phase-1 strategy in any
    spelling :func:`canonical_strategy` accepts; the blocked one defaults
    to 8 bands x 8 blocks.
    """
    if pool is None:
        from ..parallel import AlignmentWorkerPool  # local import: optional heavy dep chain

        with AlignmentWorkerPool(2 if n_workers is None else n_workers) as owned:
            return run_mp_pipeline(s, t, backend, None, owned, phase1_config)
    n_procs = pool.n_workers if n_workers is None else n_workers
    if phase1_config is None and canonical_strategy(backend) == "heuristic_block":
        phase1_config = BlockedConfig(n_procs, n_bands=8, n_blocks=8)
    return run_pipeline(s, t, backend, n_procs, phase1_config=phase1_config, executor=pool)

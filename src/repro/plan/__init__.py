"""Unified execution planner: one task-graph IR behind every backend.

The paper's three strategies and the database search all reduce to the same
shape -- a dependence graph of DP tiles -- so this package factors the
schedule out of the backends:

* :mod:`repro.plan.ir` -- :class:`Tile` / :class:`TaskGraph`, the IR;
* :mod:`repro.plan.partition` -- the decomposition geometry;
* :mod:`repro.plan.planners` -- strategy parameters -> graph
  (:func:`plan_wavefront`, :func:`plan_blocked`, :func:`plan_preprocess`,
  :func:`plan_phase2`, :func:`plan_search_buckets`) and the picklable
  :class:`PlanSpec`;
* :mod:`repro.plan.runtime` -- the single copy of kernel-driving code every
  backend executes tiles with (parity by construction);
* :mod:`repro.plan.executors` / :mod:`repro.plan.sim_exec` -- the inline
  and simulated executors (the pool, :mod:`repro.parallel`, runs the same
  graphs through the same ``run`` signature);
* :mod:`repro.plan.verify` -- the static graph verifier (:func:`verify_plan`,
  ``repro check --plans``) that proves a schedule's invariants before any
  backend runs it.

Import discipline: nothing in this package imports :mod:`repro.strategies`
or :mod:`repro.parallel`; both of those layers import *us*.
"""

from .executors import Executor, InlineExecutor, plan_span
from .ir import DYNAMIC, TaskGraph, Tile
from .partition import (
    Tiling,
    balanced_band_size,
    band_heights,
    bounds_from_heights,
    chunk_widths,
    column_partition,
    explicit_tiling,
    split_even,
    tiling_from_multiplier,
)
from .planners import (
    PlanSpec,
    blocked_spec,
    build_plan,
    cached_plan,
    phase2_spec,
    plan_blocked,
    plan_phase2,
    plan_preprocess,
    plan_search_buckets,
    plan_wavefront,
    preprocess_spec,
    search_blob,
    wavefront_spec,
)
from .result import ExecutionResult, StrategyResult
from .runtime import (
    BlockedRuntime,
    Phase2Runtime,
    PlanRuntime,
    PreprocessRuntime,
    SearchRuntime,
    WavefrontRuntime,
    finalize_plan,
    make_runtime,
    state_shape,
)
from .sim_exec import PAPER_NAMES, SimExecutor, serial_phase2_time
from .verify import (
    PlanVerificationError,
    is_strict,
    maybe_verify,
    set_strict,
    sweep_plans,
    verify_graph,
    verify_plan,
)

__all__ = [
    "DYNAMIC",
    "BlockedRuntime",
    "ExecutionResult",
    "Executor",
    "InlineExecutor",
    "PAPER_NAMES",
    "Phase2Runtime",
    "PlanRuntime",
    "PlanSpec",
    "PlanVerificationError",
    "PreprocessRuntime",
    "SearchRuntime",
    "SimExecutor",
    "StrategyResult",
    "TaskGraph",
    "Tile",
    "Tiling",
    "WavefrontRuntime",
    "balanced_band_size",
    "band_heights",
    "blocked_spec",
    "bounds_from_heights",
    "build_plan",
    "cached_plan",
    "chunk_widths",
    "column_partition",
    "explicit_tiling",
    "finalize_plan",
    "is_strict",
    "make_runtime",
    "maybe_verify",
    "phase2_spec",
    "plan_blocked",
    "plan_phase2",
    "plan_preprocess",
    "plan_search_buckets",
    "plan_span",
    "plan_wavefront",
    "preprocess_spec",
    "search_blob",
    "serial_phase2_time",
    "set_strict",
    "split_even",
    "state_shape",
    "sweep_plans",
    "tiling_from_multiplier",
    "verify_graph",
    "verify_plan",
    "wavefront_spec",
]

"""Wall-clock observability: span tracing, metrics, cross-process collection.

:mod:`repro.sim.trace` records *simulated* time; this package records what
the host actually did.  Both export the same Chrome-trace JSON schema, so a
real ``--backend pool`` run and its simulated counterpart open side by side in
Perfetto (https://ui.perfetto.dev).

The package keeps one process-global ``(tracer, metrics)`` pair, defaulting
to a no-op :class:`~repro.obs.trace.NullTracer` plus an idle registry so the
instrumentation hooks scattered through :mod:`repro.core.engine`,
:mod:`repro.parallel` and :mod:`repro.strategies.runner` cost one branch
when observability is off (the <2% overhead budget is enforced by
``tests/obs/test_overhead.py``).  Worker processes get their own pair per
job via :func:`repro.obs.collect.observed_worker`, which snapshots spans and
metrics into per-worker segment files merged by the coordinator.
"""

from __future__ import annotations

from contextlib import contextmanager

from .metrics import MetricsRegistry, gcups
from .trace import NULL_TRACER, NullTracer, Stopwatch, Tracer

__all__ = [
    "MetricsRegistry",
    "NullTracer",
    "Stopwatch",
    "Tracer",
    "count_cells",
    "disable",
    "enable",
    "gcups",
    "get_metrics",
    "get_tracer",
    "is_enabled",
    "observed",
]

_tracer: Tracer | NullTracer = NULL_TRACER
_metrics: MetricsRegistry = MetricsRegistry()


def get_tracer() -> Tracer | NullTracer:
    """The process-global tracer (a no-op unless :func:`enable` was called)."""
    return _tracer


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _metrics


def is_enabled() -> bool:
    """True while a real tracer is installed."""
    return _tracer.enabled


def enable(process: str = "coordinator") -> tuple[Tracer, MetricsRegistry]:
    """Install a fresh tracer + registry for this process and return them."""
    global _tracer, _metrics
    _tracer = Tracer(process=process)
    _metrics = MetricsRegistry()
    return _tracer, _metrics


def disable() -> tuple[Tracer | NullTracer, MetricsRegistry]:
    """Return to the no-op state; returns the pair that was active."""
    global _tracer, _metrics
    previous = (_tracer, _metrics)
    _tracer = NULL_TRACER
    _metrics = MetricsRegistry()
    return previous


@contextmanager
def observed(process: str = "coordinator"):
    """Enable observability for a scope; restores the prior state on exit.

    >>> with observed() as (tracer, metrics):
    ...     run_pipeline(s, t, executor=pool)
    >>> tracer.write_chrome_trace("out.json", metrics=metrics.snapshot())
    """
    global _tracer, _metrics
    prior = (_tracer, _metrics)
    pair = enable(process)
    try:
        yield pair
    finally:
        _tracer, _metrics = prior


def count_cells(n: int) -> None:
    """Hot-path hook: add ``n`` DP cells to the registry when enabled.

    Called once per *batched* kernel invocation (never per row), so the
    disabled cost is a single attribute check per batch.
    """
    if _tracer.enabled:
        _metrics.counter("cells_computed").inc(n)

"""Counters, gauges and fixed-bucket histograms for wall-clock runs.

The registry is deliberately tiny -- a dict of named metrics with a
JSON-serialisable :meth:`MetricsRegistry.snapshot` and a :meth:`merge` that
combines worker snapshots into the coordinator's registry (counters add,
gauges keep the maximum, histograms add bucket-wise).  That merge rule is
what makes cross-process collection trivial: each worker ships one snapshot
line in its segment file and the coordinator folds them in once the job's
results are collected.

Conventional metric names used across the repo:

``cells_computed``            DP cells advanced (engine batch kernels + workers)
``arena_bytes_published``     bytes pushed through the SequenceArena
``pool_queue_wait_seconds``   submit-to-pickup latency per pool job (histogram)
``worker_busy_seconds``       per-worker computation time (counter)
``worker_wait_seconds``       per-worker border/block wait time (counter)
``phase1_seconds`` / ``phase2_seconds`` / ``phase1_gcups`` / ``phase2_gcups``
                              pipeline gauges: wall seconds and GCUPS per
                              phase, set by ``run_pipeline`` on every backend

GCUPS (giga cell updates per second) is the conventional unit of SW
throughput (Rucci et al., Liu & Schmidt -- see PAPERS.md); :func:`gcups`
derives it from a cell counter plus a wall-clock duration.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isfinite

#: Denominators at or below this are treated as "no time measured".  Rates
#: over sub-picosecond windows are clock noise amplified to absurdity (or a
#: plain uninitialised 0.0), so every rate helper returns 0.0 instead of
#: raising ZeroDivisionError or printing ``inf``.
MIN_RATE_SECONDS = 1e-12

#: Default latency buckets (seconds): 0.1 ms .. 10 s, roughly 1-3-10 spaced.
DEFAULT_SECONDS_BUCKETS = (
    0.0001,
    0.0003,
    0.001,
    0.003,
    0.01,
    0.03,
    0.1,
    0.3,
    1.0,
    3.0,
    10.0,
)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """Last-written value (merged across processes by maximum)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram; ``buckets`` are inclusive upper edges.

    A value ``v`` lands in the first bucket whose edge satisfies
    ``v <= edge``; values above the last edge land in the overflow slot, so
    ``counts`` has ``len(buckets) + 1`` entries.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count")

    def __init__(self, name: str, buckets=DEFAULT_SECONDS_BUCKETS) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges or list(edges) != sorted(edges):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named metrics with get-or-create accessors and snapshot/merge."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- accessors ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, buckets=DEFAULT_SECONDS_BUCKETS) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, buckets)
        return h

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serialisable dump (the segment-file / trace-file payload)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def gcups(self, seconds: float, counter: str = "cells_computed") -> float:
        """GCUPS of a counted cell total over a measured wall-clock window.

        Guarded like every rate in this module: zero, near-zero, negative or
        non-finite ``seconds`` yield 0.0, never a ZeroDivisionError or inf.
        """
        return gcups(self.counter(counter).value, seconds)

    def merge(self, snapshot: dict) -> None:
        """Fold another process's snapshot into this registry.

        Counters add; gauges keep the maximum (the interesting value for
        per-worker peaks); histograms add bucket-wise when the edges match
        and are skipped otherwise (a partial segment from a killed worker
        must never corrupt the survivors' data).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            g = self.gauge(name)
            g.set(max(g.value, float(value)))
        for name, data in snapshot.get("histograms", {}).items():
            try:
                edges = tuple(float(b) for b in data["buckets"])
                counts = [int(c) for c in data["counts"]]
                total = float(data["sum"])
                count = int(data["count"])
            except (KeyError, TypeError, ValueError):
                continue
            h = self.histogram(name, edges)
            if h.buckets != edges or len(counts) != len(h.counts):
                continue
            for i, c in enumerate(counts):
                h.counts[i] += c
            h.total += total
            h.count += count


def safe_rate(amount: float, seconds: float) -> float:
    """``amount`` per second; 0.0 for zero/near-zero/invalid denominators."""
    if not isfinite(seconds) or seconds <= MIN_RATE_SECONDS:
        return 0.0
    return amount / seconds


def gcups(cells: float, seconds: float) -> float:
    """Giga cell updates per second; 0.0 when no time was measured."""
    return safe_rate(cells, seconds) / 1e9

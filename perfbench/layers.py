"""Per-layer accounting for the traced benchmark run.

The traced run wraps public entry points of each layer -- module
attributes and class methods, patched from here at runtime -- and times
every call as a span.  Spans nest on one coordinator-side stack whose root
is the benchmark's request, and each span's *self time* (its duration minus
its children) is charged to its layer.  The root's self time is
``unattributed_s``, so the layer self times plus ``unattributed_s`` add up
to the request wall time by construction.

Work inside pool workers is not on that stack.  It is read from what the
pool already exports through ``repro.obs``: worker tile spans give each
worker's busy time, and the busiest worker's share of a pool call is moved
from ``pool.coord`` to ``dp.kernel`` (it is the kernel time on the path
that blocks the request); the rest of the call is coordination.

Wrappers are installed before any pool forks, so workers inherit them, but
they record only in the coordinator and only while a traced request is
open; outside one they cost a flag check.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Self-time layers; with ``unattributed_s`` they account for request wall.
SELF_LAYERS = (
    "seq.parse",
    "seq.pack",
    "seq.repack",
    "prefilter.bound",
    "plan.build",
    "pool.coord",
    "dp.kernel",
)


class _Frame:
    __slots__ = ("layer", "start", "children", "moved")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.start = perf_counter()
        self.children = 0.0
        self.moved: list[tuple[str, float]] = []

    def move(self, layer: str, seconds: float) -> None:
        """Charge ``seconds`` of this span's self time to another layer."""
        self.moved.append((layer, seconds))


class Recorder:
    """Span stack plus per-layer self-time and count totals."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = False
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        #: summed duration of the root spans (the requests)
        self.root_s = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        #: seconds moved into a layer from another span's self time
        self.moved_s: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    def active(self) -> bool:
        return self.enabled and bool(self.stack) and os.getpid() == self.pid

    @contextmanager
    def span(self, layer: str):
        frame = _Frame(layer)
        self.stack.append(frame)
        try:
            yield frame
        finally:
            duration = perf_counter() - frame.start
            self.stack.pop()
            own = duration - frame.children
            for other, seconds in frame.moved:
                seconds = min(seconds, max(own, 0.0))
                own -= seconds
                self.self_s[other] += seconds
                self.moved_s[other] += seconds
            self.self_s[frame.layer] += own
            if self.stack:
                self.stack[-1].children += duration
            else:
                self.root_s += duration

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def wrap(self, owner, attr: str, layer: str, on_result=None):
        """Time every call of ``owner.attr`` as a ``layer`` span."""

        def make(original):
            def wrapper(*args, **kwargs):
                if not self.active():
                    return original(*args, **kwargs)
                with self.span(layer):
                    out = original(*args, **kwargs)
                if on_result is not None:
                    on_result(self, out)
                return out

            return wrapper

        self._patch(owner, attr, make)

    def wrap_iter(self, owner, attr: str, layer: str) -> None:
        """Time each ``next()`` of the iterator ``owner.attr`` returns."""

        def make(original):
            def wrapper(*args, **kwargs):
                it = original(*args, **kwargs)
                return self._timed(it, layer) if self.active() else it

            return wrapper

        self._patch(owner, attr, make)

    def _timed(self, it, layer: str):
        while True:
            with self.span(layer):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    def wrap_pool_call(self, owner, attr: str) -> None:
        """A pool job: coordination span, busiest worker's time as kernel."""
        from repro.obs import get_tracer

        def make(original):
            def wrapper(pool, *args, **kwargs):
                if not self.active():
                    return original(pool, *args, **kwargs)
                tracer = get_tracer()
                first = len(tracer.spans)
                with self.span("pool.coord") as frame:
                    out = original(pool, *args, **kwargs)
                    busy: dict[str, float] = defaultdict(float)
                    for span in tracer.spans[first:]:
                        if span.process.startswith("worker") and span.category == "computation":
                            busy[span.process] += span.duration
                    frame.move("dp.kernel", max(busy.values(), default=0.0))
                self.counts["pool.jobs"] += 1
                self.counts["pool.worker_slots_s"] += (perf_counter() - frame.start) * pool.n_workers
                self.counts["pool.worker_busy_s"] += sum(busy.values())
                return out

            return wrapper

        self._patch(owner, attr, make)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _count_tiles(recorder: Recorder, graph) -> None:
    recorder.counts["plan.tiles"] += len(graph.tiles)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark measures."""
    import repro.seq as seq
    from repro.core.bounds import TieredFilter
    from repro.parallel import pool
    from repro.plan import runtime
    from repro.strategies import prefilter, search

    recorder.wrap_iter(seq, "stream_fasta", "seq.parse")
    recorder.wrap(seq, "read_fasta", "seq.parse")
    recorder.wrap(seq, "pack_database", "seq.pack")
    recorder.wrap(prefilter, "pack_subset", "seq.repack")
    recorder.wrap(TieredFilter, "ceilings", "prefilter.bound")
    recorder.wrap(TieredFilter, "survivors", "prefilter.bound")
    for module, attr in (
        (search, "plan_search_buckets"),
        (prefilter, "plan_search_buckets"),
        (pool, "cached_plan"),
    ):
        recorder.wrap(module, attr, "plan.build", on_result=_count_tiles)
    for attr in ("run_search_plan", "run_plan", "phase2"):
        recorder.wrap_pool_call(pool.AlignmentWorkerPool, attr)
    for cls in vars(runtime).values():
        if isinstance(cls, type) and "run_tile" in vars(cls):
            recorder.wrap(cls, "run_tile", "dp.kernel")

"""Tests for the persistent shared-memory worker pool.

The pool must return exactly what the in-process :class:`InlineExecutor`
returns for the same plan, stay correct across many repeated requests (the
amortisation case it exists for), and fail fast -- not hang for the full
timeout -- when a worker dies.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro import obs
from repro.core import LocalAlignment
from repro.core.global_align import align_region
from repro.parallel import (
    AlignmentWorkerPool,
    SequenceArena,
    SharedArray,
    WorkerCrashed,
    create_shared_array,
)
from repro.parallel.pool import JOB_SPANS
from repro.parallel.shm import attach_arena
from repro.plan import InlineExecutor, blocked_spec, wavefront_spec
from repro.seq import genome_pair

WAVEFRONT = wavefront_spec(n_procs=2, group_rows=16)


@pytest.fixture(scope="module")
def pair():
    return genome_pair(
        600, 600, n_regions=2, region_length=60, mutation_rate=0.02, rng=51
    )


@pytest.fixture(scope="module")
def pool():
    with AlignmentWorkerPool(n_workers=2) as p:
        yield p


class TestSequenceArena:
    def test_round_trip(self):
        s = np.array([0, 1, 2, 3, 1], dtype=np.uint8)
        t = np.array([3, 2, 1], dtype=np.uint8)
        with SequenceArena(s, t) as arena:
            shm, s_view, t_view = attach_arena(arena.handle)
            try:
                assert s_view.tolist() == s.tolist()
                assert t_view.tolist() == t.tolist()
                assert s_view.dtype == np.uint8
            finally:
                shm.close()

    def test_context_manager_unlinks(self):
        from multiprocessing import shared_memory

        s = np.zeros(4, dtype=np.uint8)
        with SequenceArena(s, s) as arena:
            name = arena.handle.name
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestSharedArrayLifecycle:
    def test_context_manager_unlinks(self):
        from multiprocessing import shared_memory

        with create_shared_array((3, 3)) as arr:
            name = arr.name
            arr.array[1, 1] = 9
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_idempotent(self):
        arr = create_shared_array((4,))
        arr.close()
        arr.close()  # second close is a no-op, not a crash

    def test_name_after_close_raises(self):
        arr = create_shared_array((4,))
        arr.close()
        with pytest.raises(ValueError):
            _ = arr.name


class TestPoolMatchesOneShotBackends:
    """The pool against the in-process executor running the same plan."""

    def test_wavefront_matches(self, pool, pair):
        expected = InlineExecutor().run(WAVEFRONT.build(600, 600), pair.s, pair.t)
        got = pool.run_plan(WAVEFRONT, pair.s, pair.t)
        assert [a.region for a in got.alignments] == [
            a.region for a in expected.alignments
        ]
        assert [a.score for a in got.alignments] == [
            a.score for a in expected.alignments
        ]

    def test_blocked_matches(self, pool, pair):
        spec = blocked_spec(n_procs=2, n_bands=6, n_blocks=4)
        expected = InlineExecutor().run(spec.build(600, 600), pair.s, pair.t)
        got = pool.run_plan(spec, pair.s, pair.t)
        assert [a.region for a in got.alignments] == [
            a.region for a in expected.alignments
        ]

    def test_phase2_matches(self, pool, pair):
        regions = [
            LocalAlignment(10, p.s_start, p.s_end, p.t_start, p.t_end)
            for p in pair.regions
        ]
        ordered = sorted(regions, key=lambda r: (-r.size, r.region))
        expected = [align_region(pair.s, pair.t, r) for r in ordered]
        got = pool.phase2(regions, pair.s, pair.t)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.similarity == e.similarity
            assert g.source.region == e.source.region

    def test_repeated_requests_stay_correct(self, pool, pair):
        """Ten requests on live workers: the amortisation scenario."""
        expected = InlineExecutor().run(WAVEFRONT.build(600, 600), pair.s, pair.t)
        pool.load_pair(pair.s, pair.t)
        for _ in range(10):
            got = pool.run_plan(WAVEFRONT)
            assert [a.region for a in got.alignments] == [
                a.region for a in expected.alignments
            ]

    def test_traced_plan_splits_the_fixed_cost(self, pool, pair):
        """Each worker stamps its job's stages, and the coordinator each
        result's trip back, inside the plan span."""
        spec = blocked_spec(n_procs=2, n_bands=4, n_blocks=4)
        with obs.observed() as (tracer, _):
            pool.run_plan(spec, pair.s, pair.t)
        plan = next(sp for sp in tracer.spans if sp.name == "plan:blocked")
        mine = [sp for sp in tracer.spans if sp.name in JOB_SPANS]
        for role in range(2):
            worker = f"worker-{role}"
            names = [sp.name for sp in mine if sp.process == worker]
            assert sorted(names) == sorted(set(JOB_SPANS) - {"result_put"})
            put = [sp for sp in mine if sp.name == "result_put" and sp.args["worker"] == role]
            assert len(put) == 1 and not put[0].process.startswith("worker")
        for sp in mine:
            assert sp.category == "coordination"
            assert sp.duration >= 0.0
            assert plan.start - 1e-6 <= sp.start and sp.end <= plan.end + 1e-6

    def test_pair_switch(self, pool, pair):
        other = genome_pair(
            400, 400, n_regions=1, region_length=70, mutation_rate=0.0, rng=50
        )
        first = pool.run_plan(WAVEFRONT, pair.s, pair.t).alignments
        second = pool.run_plan(WAVEFRONT, other.s, other.t).alignments
        third = pool.run_plan(WAVEFRONT, pair.s, pair.t).alignments
        assert [a.region for a in first] == [a.region for a in third]
        assert [a.region for a in second] != [a.region for a in first]

    def test_phase2_empty(self, pool, pair):
        assert pool.phase2([], pair.s, pair.t) == []


class TestPoolLifecycle:
    def test_requires_loaded_pair(self):
        with AlignmentWorkerPool(n_workers=1) as p:
            with pytest.raises(ValueError):
                p.run_plan(wavefront_spec(n_procs=1))

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            AlignmentWorkerPool(n_workers=0)

    def test_submit_after_close_raises(self, pair):
        p = AlignmentWorkerPool(n_workers=1)
        p.close()
        with pytest.raises(RuntimeError):
            p.run_plan(wavefront_spec(n_procs=1), pair.s, pair.t)

    def test_close_idempotent(self):
        p = AlignmentWorkerPool(n_workers=1)
        p.close()
        p.close()

    def test_worker_error_reports_not_hangs(self, pair):
        """A job-level error surfaces as PoolJobError and the pool survives."""
        from repro.parallel import PoolJobError

        with AlignmentWorkerPool(n_workers=2) as p:
            with pytest.raises((PoolJobError, ValueError)):
                # an invalid plan -> worker-side / parent-side error
                p.run_plan(wavefront_spec(n_procs=2, group_rows=0), pair.s, pair.t)
            # the pool still serves good jobs afterwards
            assert p.run_plan(WAVEFRONT, pair.s, pair.t).alignments


class TestWorkerDeathDetection:
    def test_killed_worker_raises_quickly(self, pair):
        """SIGKILL one worker mid-pool: the request fails in seconds, it does
        not sit out the full 300 s job timeout."""
        pool = AlignmentWorkerPool(n_workers=2)
        try:
            pool.load_pair(pair.s, pair.t)
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            start = time.monotonic()
            with pytest.raises(WorkerCrashed):
                pool.run_plan(WAVEFRONT)
            assert time.monotonic() - start < 30.0
        finally:
            pool.close(join_timeout=0.5)

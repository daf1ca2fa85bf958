"""Regression tests for the pool's shared-segment lifecycle fixes.

Two leak windows existed in ``AlignmentWorkerPool``:

* ``run_plan`` allocated two segments back to back; a failure
  allocating the second left the first one linked forever.  Fixed by nesting
  both in one ``with``.
* ``search`` created its :class:`SequenceArena` *before* entering the
  try/finally that closed it; any exception in between (metrics, queue
  dispatch) leaked the named segment.  Fixed by moving creation inside an
  outer ``try`` whose ``finally`` closes.

The fault injection at the end fails one job's done-flag allocation the way
a full ``/dev/shm`` does (``ENOSPC``) and checks the contract: the error
names the cause, no segment is left, and the pool serves the next job.
"""

from __future__ import annotations

import errno
import glob

import numpy as np
import pytest

import repro.parallel.pool as pool_mod
from repro.parallel.pool import AlignmentWorkerPool
from repro.plan import InlineExecutor, blocked_spec, cached_plan, wavefront_spec
from repro.seq import genome_pair
from repro.seq.db import pack_database, synthetic_database
from repro.strategies import SearchConfig, search_db


class Boom(RuntimeError):
    pass


@pytest.fixture
def pair():
    rng = np.random.default_rng(11)
    make = lambda: "".join(rng.choice(list("ACGT"), 200))
    return make(), make()


def _failing_second_allocation(monkeypatch):
    """Patch the pool's create_shared_array: 1st call real, 2nd raises."""
    real = pool_mod.create_shared_array
    created = []
    state = {"calls": 0}

    def wrapper(shape, dtype=np.int32):
        state["calls"] += 1
        if state["calls"] == 2:
            raise Boom("no memory for the second segment")
        arr = real(shape, dtype)
        created.append(arr)
        return arr

    monkeypatch.setattr(pool_mod, "create_shared_array", wrapper)
    return created


def test_wavefront_unwinds_first_segment_when_second_fails(monkeypatch, pair):
    with AlignmentWorkerPool(n_workers=2) as pool:
        created = _failing_second_allocation(monkeypatch)
        with pytest.raises(Boom):
            pool.run_plan(wavefront_spec(n_procs=2), *pair)
    assert len(created) == 1
    assert created[0].shm is None  # closed (and unlinked) despite the failure


def test_blocked_unwinds_first_segment_when_second_fails(monkeypatch, pair):
    with AlignmentWorkerPool(n_workers=2) as pool:
        created = _failing_second_allocation(monkeypatch)
        with pytest.raises(Boom):
            pool.run_plan(blocked_spec(n_procs=2, n_bands=8, n_blocks=8), *pair)
    assert len(created) == 1
    assert created[0].shm is None


def test_search_closes_arena_when_dispatch_fails(monkeypatch):
    packed = pack_database(synthetic_database(n=4, min_length=50, max_length=80, rng=5))
    arenas = []
    real_arena = pool_mod.SequenceArena

    class TrackedArena(real_arena):
        def __init__(self, s, t):
            super().__init__(s, t)
            arenas.append(self)

    monkeypatch.setattr(pool_mod, "SequenceArena", TrackedArena)

    def broken_submit(job):
        raise Boom("task queue unavailable")

    with AlignmentWorkerPool(n_workers=2) as pool:
        monkeypatch.setattr(pool, "_submit", broken_submit)
        with pytest.raises(Boom):
            search_db("ACGTACGTACGT", packed, SearchConfig(top_k=3), pool=pool)
    assert len(arenas) == 1
    assert arenas[0]._shm is None  # the fix: finally closes the arena


def test_search_happy_path_closes_arena_too(monkeypatch):
    packed = pack_database(synthetic_database(n=6, min_length=50, max_length=90, rng=6))
    arenas = []
    real_arena = pool_mod.SequenceArena

    class TrackedArena(real_arena):
        def __init__(self, s, t):
            super().__init__(s, t)
            arenas.append(self)

    monkeypatch.setattr(pool_mod, "SequenceArena", TrackedArena)
    with AlignmentWorkerPool(n_workers=2) as pool:
        hits = search_db("ACGTACGTACGT", packed, SearchConfig(top_k=3), pool=pool).hits
    assert hits
    assert arenas and all(a._shm is None for a in arenas)


def test_close_is_idempotent_and_releases_the_loaded_arena(pair):
    pool = AlignmentWorkerPool(n_workers=2)
    pool.load_pair(*pair)
    arena = pool._arena
    assert arena is not None
    pool.close()
    assert pool._arena is None and arena._shm is None
    pool.close()  # second close is a no-op, not a double-unlink


def test_full_shared_memory_fails_one_job_and_the_pool_serves_the_next(monkeypatch):
    gp = genome_pair(400, 400, n_regions=1, region_length=80, mutation_rate=0.0, rng=3)
    pair = gp.s, gp.t
    spec = blocked_spec(n_procs=2, n_bands=4, n_blocks=4)
    real = pool_mod.create_shared_array
    failed = []

    def no_space_for_done_flags(shape, dtype=np.int32):
        if dtype == np.int64 and not failed:  # the job's done flags + cursor
            failed.append(shape)
            raise OSError(errno.ENOSPC, "No space left on device", "/dev/shm")
        return real(shape, dtype)

    before = set(glob.glob("/dev/shm/psm_*"))
    with AlignmentWorkerPool(n_workers=2) as pool:
        monkeypatch.setattr(pool_mod, "create_shared_array", no_space_for_done_flags)
        with pytest.raises(OSError, match="No space left on device") as raised:
            pool.run_plan(spec, *pair)
        assert raised.value.errno == errno.ENOSPC
        assert failed == [(4 * 4 + 1,)]
        # The blocked plan's state segment, allocated first, is unwound; only
        # the pool's own pair arena is still mapped.
        assert set(glob.glob("/dev/shm/psm_*")) - before == {f"/dev/shm/{pool._arena.handle.name}"}
        served = pool.run_plan(spec, *pair)
        exact = InlineExecutor().run(cached_plan(spec, 400, 400), *pair)
        assert exact.alignments and served.alignments == exact.alignments
    assert set(glob.glob("/dev/shm/psm_*")) == before

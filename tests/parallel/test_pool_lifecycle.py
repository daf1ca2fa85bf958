"""Regression tests for the pool's shared-segment lifecycle fixes.

Two leak windows existed in ``AlignmentWorkerPool``:

* ``run_plan`` allocated two segments back to back; a failure
  allocating the second left the first one linked forever.  Fixed by nesting
  both in one ``with``.
* ``search`` created its :class:`SequenceArena` *before* entering the
  try/finally that closed it; any exception in between (metrics, queue
  dispatch) leaked the named segment.  Fixed by moving creation inside an
  outer ``try`` whose ``finally`` closes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.parallel.pool as pool_mod
from repro.parallel.pool import AlignmentWorkerPool
from repro.plan import blocked_spec, wavefront_spec
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

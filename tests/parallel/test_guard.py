"""Unit coverage for :func:`repro.parallel.guard.poll_until`.

Worker-death detection lives in the pool's result collection; its tests
are ``tests/parallel/test_pool.py::TestWorkerDeathDetection`` and the
forced-death sanitizer run in ``tests/check/test_sanitizer_e2e.py``.
"""

from __future__ import annotations

import pytest

from repro.parallel.guard import poll_until


def test_poll_until_returns_once_condition_holds():
    state = {"n": 0}

    def condition():
        state["n"] += 1
        return state["n"] >= 3

    poll_until(condition, timeout=5.0, what="counter")
    assert state["n"] == 3


def test_poll_until_times_out_with_message():
    with pytest.raises(TimeoutError, match="band_done stuck"):
        poll_until(lambda: False, timeout=0.05, what="band_done stuck")

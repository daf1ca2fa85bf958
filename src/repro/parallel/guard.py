"""Crash-safe waiting on worker processes.

A ``Queue.get(timeout=300)`` wait leaves the parent blocked for the *full*
timeout when a worker dies before answering (OOM kill, unpickleable
exception, segfault in a C extension), while named shared-memory segments
leak.  The pool therefore polls with short timeouts and checks
``Process.exitcode`` between polls (see
:meth:`repro.parallel.pool.AlignmentWorkerPool._collect`), so worker death
surfaces in well under a second as :class:`WorkerCrashed`.
"""

from __future__ import annotations

import time


class WorkerCrashed(RuntimeError):
    """A worker process exited without delivering its result."""


def poll_until(condition, timeout: float, what: str, interval: float = 1e-4) -> None:
    """Spin (with tiny sleeps) until ``condition()`` is true.

    The shared-memory pool signals progress through plain counters instead of
    semaphores -- counters can be created per job and attached by name,
    whereas ``multiprocessing`` semaphores can only be inherited at fork
    time, which would pin the pool to one job shape forever.
    """
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise TimeoutError(what)
        time.sleep(interval)

"""Cross-process span/metric collection through per-worker segment files.

A coordinator that wants telemetry from worker processes passes them an
:class:`ObsJob` descriptor (a directory + job key, picklable).  Each worker
enables its own process-local tracer/registry via :func:`observed_worker`,
runs the job, and writes one *segment* -- a jsonl file named
``<key>-<process>.jsonl`` -- holding its spans plus one metrics snapshot.
Once the job's results are in, the coordinator calls :func:`merge_segments`
/ :func:`merge_into` to fold every segment into its own tracer and registry,
yielding one coherent timeline (perf_counter is system-wide on Linux, so no
clock reconciliation is needed).

Robustness contract: a worker killed mid-write leaves a missing or truncated
segment -- and a worker killed *then restarted* re-opens its segment, so a
torn line can sit in the middle of the file with valid records after it.
:func:`merge_segments` therefore reads each file line by line and skips any
undecodable line individually: partial segments contribute every valid
record around the tear and never corrupt the merged timeline (exercised by
``tests/obs/test_collect.py``).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from glob import glob
from time import perf_counter

from ..check.sanitizer import get_sanitizer
from . import disable, enable
from .metrics import MetricsRegistry
from .trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class ObsJob:
    """Picklable descriptor telling a worker where to write its telemetry.

    ``t_submit`` (a coordinator-side ``perf_counter`` stamp) lets the worker
    measure queue-wait latency on pickup without any extra round trip.
    """

    dir: str
    key: str
    t_submit: float = 0.0


def segment_path(obs: ObsJob, process: str) -> str:
    return os.path.join(obs.dir, f"{obs.key}-{process}.jsonl")


def write_segment(obs: ObsJob, process: str, tracer, metrics: MetricsRegistry) -> None:
    """Dump one worker's spans + metrics snapshot as a jsonl segment.

    With ``REPRO_SANITIZE=1`` the process's full sanitizer event history is
    appended as one extra record (persistent workers re-export everything;
    the coordinator deduplicates on absorb), so lock/arena events reach the
    coordinator over the same channel as spans.
    """
    with open(segment_path(obs, process), "w", encoding="utf-8") as fh:
        for raw in tracer.export_slices():
            fh.write(json.dumps({"kind": "span", **raw}) + "\n")
        fh.write(json.dumps({"kind": "metrics", "data": metrics.snapshot()}) + "\n")
        san = get_sanitizer()
        if san is not None:
            fh.write(
                json.dumps({"kind": "sanitizer", "events": san.export_events()}) + "\n"
            )


@contextmanager
def observed_worker(obs: ObsJob | None, process: str):
    """Worker-side observability scope for one job.

    With ``obs`` set, installs a fresh process-global tracer/registry (so
    the engine's hooks feed this job's telemetry), records queue-wait, and
    writes the segment on exit -- also on error, so a failing job still
    reports the spans it managed.  With ``obs=None`` the process-global
    state is reset to disabled (a forked worker may have inherited the
    coordinator's enabled tracer) and a null pair is yielded.
    """
    if obs is None:
        disable()
        yield NULL_TRACER, MetricsRegistry()
        return
    tracer, metrics = enable(process)
    if obs.t_submit:
        metrics.histogram("pool_queue_wait_seconds").observe(
            max(0.0, perf_counter() - obs.t_submit)
        )
    try:
        yield tracer, metrics
    finally:
        try:
            write_segment(obs, process, tracer, metrics)
        finally:
            disable()


def merge_segments(dir_: str, key: str) -> tuple[list[dict], list[dict]]:
    """Read every segment of one job; tolerate missing/partial files.

    Returns ``(slices, metric_snapshots)``.  Undecodable lines are skipped
    *individually* (not treated as end-of-file): a worker killed mid-write
    and restarted re-opens its segment, leaving the torn line followed by
    valid records that must still be collected.  Malformed span records are
    likewise skipped one by one.
    """
    slices: list[dict] = []
    snapshots: list[dict] = []
    for path in sorted(glob(os.path.join(dir_, f"{key}-*.jsonl"))):
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            continue
        for line in lines:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn line of a killed (maybe restarted) worker
            if not isinstance(record, dict):
                continue
            if record.get("kind") == "span":
                if {"name", "cat", "process", "start", "dur"} <= record.keys():
                    slices.append(record)
            elif record.get("kind") == "metrics" and isinstance(record.get("data"), dict):
                snapshots.append(record["data"])
    return slices, snapshots


def read_sanitizer_events(dir_: str, key: str) -> list[dict]:
    """Sanitizer event records from one job's segments (same tolerance rules)."""
    events: list[dict] = []
    for path in sorted(glob(os.path.join(dir_, f"{key}-*.jsonl"))):
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            continue
        for line in lines:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn line of a killed (maybe restarted) worker
            if (
                isinstance(record, dict)
                and record.get("kind") == "sanitizer"
                and isinstance(record.get("events"), list)
            ):
                events.extend(e for e in record["events"] if isinstance(e, dict))
    return events


def merge_into(tracer: Tracer, metrics: MetricsRegistry, dir_: str, key: str) -> int:
    """Fold one job's segments into coordinator state; returns slice count.

    Also absorbs worker sanitizer events into the coordinator's sanitizer
    when ``REPRO_SANITIZE=1``, so a single end-of-run ``report()`` sees the
    whole cluster's lock and arena history.
    """
    slices, snapshots = merge_segments(dir_, key)
    tracer.add_slices(slices)
    for snap in snapshots:
        metrics.merge(snap)
    san = get_sanitizer()
    if san is not None:
        san.absorb(read_sanitizer_events(dir_, key))
    return len(slices)


def discard_segments(dir_: str, key: str) -> None:
    """Remove one job's segment files (after a successful merge)."""
    for path in glob(os.path.join(dir_, f"{key}-*.jsonl")):
        try:
            os.remove(path)
        except OSError:
            pass

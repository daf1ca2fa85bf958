"""Persistent run ledger: an append-only jsonl history of measured runs.

Every instrumented entry point (``repro align``, ``repro search``,
``repro bench kernels``) can append one *entry* per run: a machine stamp, a
digest of the configuration that produced the numbers, the headline rate
metrics, and -- when observability was on -- the plan attribution summary
from :mod:`repro.obs.attrib`.  The ledger is how "it got slower" stops
being folklore: ``repro obs diff <run> <run>`` compares any two entries
(or a ledger entry against a committed ``BENCH_kernels.json``) and flags
regressions past the same threshold the benchmark guard uses.

Activation is explicit: :func:`set_ledger` installs a path for the process,
or the ``REPRO_LEDGER`` environment variable names one (so CI can collect a
ledger artifact without threading a flag through every call site).  With
neither set, :func:`record_run` is a no-op -- runs stay unrecorded, never
half-recorded.

Direction matters when diffing: ``*_gcups`` / ``*_cells_per_s`` /
``*_speedup`` are higher-is-better, ``*_seconds`` lower-is-better.  A key
regresses when it loses more than :data:`REGRESSION_THRESHOLD` of its
baseline value in its own direction; ``benchmarks/test_bench_guard.py``
imports the constant so the two gates can never drift apart.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
import uuid
from typing import Any

#: Allowed fractional loss before a diff row is flagged as a regression.
#: Shared with ``benchmarks/test_bench_guard.py`` (its ``MAX_REGRESSION``).
REGRESSION_THRESHOLD = 0.30

#: Rate-key suffixes that are higher-is-better; ``*_seconds`` is
#: lower-is-better; anything else is reported but never flagged.
HIGHER_BETTER_SUFFIXES = ("_gcups", "_cells_per_s", "_speedup", "_mb_per_s")
LOWER_BETTER_SUFFIX = "_seconds"


def machine_stamp() -> dict:
    """Who measured: enough to explain cross-machine number shifts."""
    import numpy as np

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def config_digest(config: dict) -> str:
    """Stable short digest of the run configuration (sorted-JSON sha256)."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def make_entry(
    label: str,
    rates: dict,
    *,
    config: dict | None = None,
    attribution: dict | None = None,
) -> dict:
    """Build one ledger entry (a plain JSON-safe dict)."""
    return {
        "run_id": f"{label}-{uuid.uuid4().hex[:8]}",
        "label": label,
        # A display string, deliberately not a float: ledger entries are
        # ordered by file append order, and a string can never be mistaken
        # for (or subtracted from) a perf_counter span stamp.
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_stamp(),
        "config_digest": config_digest(config or {}),
        "config": config or {},
        "rates": {k: float(v) for k, v in rates.items()},
        "attribution": attribution,
    }


class RunLedger:
    """Append-only jsonl file of run entries.

    Reads are tolerant the same way :mod:`repro.obs.collect` is: a torn
    trailing line (process killed mid-append) is skipped, never fatal.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)

    def append(self, entry: dict) -> dict:
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
        return entry

    def entries(self) -> list[dict]:
        try:
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return []
        out: list[dict] = []
        for line in lines:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn line of an interrupted append
            if isinstance(record, dict) and "rates" in record:
                out.append(record)
        return out

    def get(self, ref: str | int) -> dict:
        """Resolve an entry by run id, label, or (possibly negative) index."""
        entries = self.entries()
        if not entries:
            raise LookupError(f"ledger {self.path} is empty")
        if isinstance(ref, int):
            return entries[ref]
        for entry in reversed(entries):  # latest run of a label wins
            if entry.get("run_id") == ref or entry.get("label") == ref:
                return entry
        try:
            return entries[int(ref)]
        except (ValueError, IndexError):
            raise LookupError(f"no ledger entry matches {ref!r}") from None


# --------------------------------------------------------------------------
# Process-global activation
# --------------------------------------------------------------------------

_ledger: RunLedger | None = None


def set_ledger(path: str | os.PathLike[str] | None) -> RunLedger | None:
    """Install (or with ``None`` clear) the process-global ledger."""
    global _ledger
    _ledger = RunLedger(path) if path is not None else None
    return _ledger


def active_ledger() -> RunLedger | None:
    """The installed ledger, else one named by ``REPRO_LEDGER``, else None."""
    if _ledger is not None:
        return _ledger
    env = os.environ.get("REPRO_LEDGER")
    return RunLedger(env) if env else None


def record_run(label: str, rates: dict, config: dict | None = None) -> dict | None:
    """Append one entry for the run that just finished; no-op when inactive.

    When observability is enabled the live tracer is attributed best-effort
    (:func:`repro.obs.attrib.attribute`) and the summary rides the entry;
    attribution failure never fails the run being recorded.
    """
    ledger = active_ledger()
    if ledger is None:
        return None
    attribution: dict | None = None
    from . import get_metrics, get_tracer, is_enabled

    if is_enabled():
        try:
            from .attrib import attribute, payload_from_tracer

            attribution = attribute(
                payload_from_tracer(get_tracer(), get_metrics())
            ).summary()
        except Exception:
            attribution = None
    return ledger.append(
        make_entry(label, rates, config=config, attribution=attribution)
    )


# --------------------------------------------------------------------------
# Diffing
# --------------------------------------------------------------------------


def _direction(key: str) -> str:
    if key.endswith(HIGHER_BETTER_SUFFIXES):
        return "higher"
    if key.endswith(LOWER_BETTER_SUFFIX):
        return "lower"
    return "neutral"


def diff_entries(
    before: dict, after: dict, threshold: float = REGRESSION_THRESHOLD
) -> list[dict]:
    """Compare two entries' rate dicts, direction-aware.

    Returns one row per shared key: ``{key, before, after, ratio,
    direction, regressed}``.  A higher-is-better key regresses when
    ``after/before < 1 - threshold``; a lower-is-better key when the run
    got slower by the equivalent factor (``ratio > 1 / (1 - threshold)``).
    """
    rows: list[dict] = []
    a_rates: dict = before.get("rates", {})
    b_rates: dict = after.get("rates", {})
    for key in sorted(set(a_rates) & set(b_rates)):
        old, new = float(a_rates[key]), float(b_rates[key])
        if old <= 0.0:
            continue
        ratio = new / old
        direction = _direction(key)
        regressed = (direction == "higher" and ratio < 1.0 - threshold) or (
            direction == "lower" and ratio > 1.0 / (1.0 - threshold)
        )
        rows.append(
            {
                "key": key,
                "before": old,
                "after": new,
                "ratio": ratio,
                "direction": direction,
                "regressed": regressed,
            }
        )
    return rows


def render_diff(before: dict, after: dict, rows: list[dict]) -> str:
    """Human-readable diff table; regressions are marked ``!!``."""
    lines = [
        f"before: {before.get('run_id', '?')}  ({before.get('label', '?')})",
        f"after:  {after.get('run_id', '?')}  ({after.get('label', '?')})",
    ]
    if before.get("config_digest") != after.get("config_digest"):
        lines.append(
            "note: config digests differ "
            f"({before.get('config_digest')} vs {after.get('config_digest')})"
            " -- the runs measured different setups"
        )
    if not rows:
        lines.append("no shared rate keys to compare")
        return "\n".join(lines)
    width = max(len(r["key"]) for r in rows)
    for r in rows:
        mark = "!!" if r["regressed"] else "  "
        lines.append(
            f"  {mark} {r['key']:<{width}}  {r['before']:>12.4f} -> "
            f"{r['after']:>12.4f}  ({r['ratio']:6.2f}x, {r['direction']})"
        )
    flagged = sum(1 for r in rows if r["regressed"])
    lines.append(
        f"{flagged} regression(s) past the {REGRESSION_THRESHOLD:.0%} threshold"
        if flagged
        else "no regressions past the threshold"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# BENCH_kernels.json interop
# --------------------------------------------------------------------------


def bench_rates(payload: dict) -> dict:
    """Flatten a BENCH_kernels.json payload into a ledger rate dict.

    Keys become ``{entry}.{metric}`` for every numeric metric with a
    recognised direction suffix, so a ledger entry recorded from ``bench
    kernels`` diffs cleanly against the committed baseline file.
    """
    rates: dict = {}
    for entry_key, entry in payload.items():
        if entry_key.startswith("_") or not isinstance(entry, dict):
            continue
        for key, value in entry.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if _direction(key) == "neutral":
                continue
            rates[f"{entry_key}.{key}"] = float(value)
    return rates


def entry_from_bench(payload: dict, label: str = "bench-kernels") -> dict:
    """Wrap a BENCH-style payload as a ledger entry (for file-path diffs)."""
    entry = make_entry(label, bench_rates(payload), config=payload.get("_machine"))
    if isinstance(payload.get("_machine"), dict):
        entry["machine"] = {**entry["machine"], **payload["_machine"]}
    return entry


def resolve_ref(ledger: RunLedger | None, ref: str) -> dict:
    """CLI ref resolution: a json file path, else a ledger id/label/index."""
    if os.path.exists(ref) and ref.endswith(".json"):
        with open(ref, encoding="utf-8") as fh:
            payload = json.load(fh)
        if isinstance(payload, dict) and "rates" in payload:
            return payload
        return entry_from_bench(payload, label=os.path.basename(ref))
    if ledger is None:
        raise LookupError(f"{ref!r} is not a file and no ledger is configured")
    return ledger.get(ref)

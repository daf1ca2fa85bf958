"""Benchmark-harness plumbing.

Each ``test_*`` module regenerates one of the paper's tables/figures via
:mod:`repro.analysis.experiments` and registers the rendered report here;
the terminal-summary hook prints every report after the pytest-benchmark
table, so ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
captures the paper-style rows uncensored by output capturing.

Reports are also written to ``benchmarks/reports/<ident>.txt``.

Environment knobs:

* ``REPRO_BENCH_PROFILE=fast`` -- halve the actual workload sizes (the
  nominal paper sizes are unchanged; see EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os

import pytest

_REPORTS: list = []
_REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")

#: Raw performance numbers registered via the ``perf_record`` fixture,
#: written to BENCH_kernels.json at session end (merged with any prior run,
#: so kernel and pool benches can be run separately) unless benchmarking is
#: disabled.
_PERF: dict = {}
_PERF_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")
)


@pytest.fixture(scope="session")
def record_report():
    """Register an ExperimentReport for end-of-session printing."""

    def _record(report) -> None:
        _REPORTS.append(report)
        os.makedirs(_REPORT_DIR, exist_ok=True)
        path = os.path.join(_REPORT_DIR, f"{report.ident}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.render() + "\n")
            for key, value in report.series.items():
                if isinstance(value, str):
                    fh.write(f"\n-- {key} --\n{value}\n")

    return _record


@pytest.fixture(scope="session")
def perf_record():
    """Register raw perf numbers (cells/sec, wall times) for BENCH_kernels.json."""

    def _record(key: str, **values) -> None:
        _PERF.setdefault(key, {}).update(values)

    return _record


def pytest_sessionfinish(session, exitstatus):
    # Under --benchmark-disable (the report rebuild) nothing was timed, so
    # the committed baseline must not move.
    if not _PERF or session.config.getoption("benchmark_disable", False):
        return
    merged: dict = {}
    if os.path.exists(_PERF_PATH):
        try:
            with open(_PERF_PATH, encoding="utf-8") as fh:
                merged = json.load(fh)
        except (OSError, ValueError):
            merged = {}
    for key, values in _PERF.items():
        merged.setdefault(key, {}).update(values)
    with open(_PERF_PATH, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="session")
def profile():
    from repro.analysis import active_profile

    return active_profile()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("paper reproduction reports")
    for report in sorted(_REPORTS, key=lambda r: r.ident):
        terminalreporter.write_line(report.render())
        for key, value in report.series.items():
            if isinstance(value, str):
                terminalreporter.write_line(f"-- {key} --")
                terminalreporter.write_line(value)
        terminalreporter.write_line("")

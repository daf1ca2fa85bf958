"""Smoke-size tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

WORKLOADS = ("search-pool", "search-fasta", "align-pool")


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict, str]:
    out = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return json.loads(lines[-1]), detail, out.stdout


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    result, detail, stdout = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert isinstance(result["metrics"][name]["value"], float | int)
        assert f" {name} " in stdout and stdout.count(f" {unit}\n") >= 1
    assert detail["leaked_shm"] == []
    if trace:
        wall = detail["request_wall_s"]
        assert wall > 0
        assert detail["layers_plus_unattributed_s"] == pytest.approx(wall, rel=1e-9, abs=1e-12)
    else:
        assert result["metrics"]["correct_ratio"]["value"] == 1.0


def _session_members(sid: int) -> list[str]:
    members = []
    for entry in Path("/proc").iterdir():
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:  # field 6 of stat, after pid, comm, state, ppid, pgrp
            members.append(f"{entry.name} {fields[0]}")
    return members


@pytest.mark.parametrize("workload", ("search-pool", "align-pool"))
def test_no_process_outlives_a_run(workload):
    """Pool workers and the resource tracker are stopped and reaped on exit."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", "0", "--size", "smoke"],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    _, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr
    # Anything left in the run's session -- running or an unreaped zombie --
    # was started by the run and not waited for.
    assert _session_members(proc.pid) == []


def test_benchmark_json_names_the_printed_metrics():
    spec_path = run.ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        pytest.skip("no BENCHMARK.json beside the benchmark")
    spec = json.loads(spec_path.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    sys.path.insert(0, str(run.SRC))
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _in_process(workload_name, tmp_path, seed=3):
    sys.path.insert(0, str(run.SRC))
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    prep = workload.prepare(seed, "smoke", workload.request_count(1), str(tmp_path))
    metrics, _, passed = run.timed_run(workload, prep, seed)
    return metrics, passed


def test_corrupted_search_ranking_lowers_correct_ratio(tmp_path, monkeypatch):
    import repro.strategies as strategies

    honest = strategies.search_db

    def reversed_ranking(*args, **kwargs):
        result = honest(*args, **kwargs)
        return dataclasses.replace(result, hits=result.hits[::-1])

    monkeypatch.setattr(strategies, "search_db", reversed_ranking)
    metrics, passed = _in_process("search-fasta", tmp_path)
    # Reversal keeps every family hit in the family; the sampled parity
    # check against the unpruned reference is what must catch it.
    assert metrics["correct_ratio"] < 1.0
    assert not all(passed)


def test_lost_alignment_records_lower_correct_ratio(tmp_path, monkeypatch):
    import repro.strategies as strategies

    honest = strategies.run_mp_pipeline

    def lossy(*args, **kwargs):
        result = honest(*args, **kwargs)
        return dataclasses.replace(result, records=result.records[:0])

    monkeypatch.setattr(strategies, "run_mp_pipeline", lossy)
    metrics, _ = _in_process("align-pool", tmp_path)
    assert metrics["correct_ratio"] == 0.0


def test_results_that_differ_between_servings_lower_correct_ratio(tmp_path, monkeypatch):
    import repro.strategies as strategies

    honest = strategies.run_mp_pipeline
    seen = set()

    def unstable(s, t, **kwargs):
        result = honest(s, t, **kwargs)
        if id(s) not in seen:
            seen.add(id(s))
            return result
        # A later serving of the same pair comes back in another order.
        return dataclasses.replace(result, records=result.records[::-1])

    monkeypatch.setattr(strategies, "run_mp_pipeline", unstable)
    metrics, _ = _in_process("align-pool", tmp_path)
    assert metrics["correct_ratio"] < 1.0


def test_no_program_source_means_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "search-pool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

"""End-to-end telemetry through the real execution paths.

These are the acceptance tests of the observability tentpole: a pool run
under ``observed()`` must yield one coherent timeline containing spans from
every worker process plus the coordinator, with merged metrics, and the
pipeline runners must report wall-clock seconds that can never be confused
with simulated time.
"""

import pytest

import repro.obs as obs
from repro.obs.report import phase_rows, process_rows, render_report
from repro.plan import blocked_spec, wavefront_spec
from repro.seq import genome_pair


@pytest.fixture(scope="module")
def pair():
    return genome_pair(
        400, 400, n_regions=2, region_length=60, mutation_rate=0.02, rng=7, min_separation=60
    )


class TestPoolTelemetry:
    def test_pool_run_collects_worker_spans_and_metrics(self, pair):
        from repro.parallel import AlignmentWorkerPool

        with obs.observed("coordinator") as (tracer, metrics):
            with AlignmentWorkerPool(n_workers=2) as pool:
                pool.load_pair(pair.s, pair.t)
                regions = pool.run_plan(wavefront_spec(n_procs=2)).alignments
                pool.phase2([r for r in regions if r.s_length and r.t_length])
        processes = tracer.processes()
        assert "coordinator" in processes
        assert "worker-0" in processes and "worker-1" in processes
        # every phase-1 cell was counted exactly once across the workers
        assert metrics.counter("cells_computed").value >= 400 * 400
        assert metrics.counter("arena_bytes_published").value == 800
        assert metrics.histogram("pool_queue_wait_seconds").count >= 2
        # worker compute slices and the shm publish span are both present
        assert any(s.name == "rows" for s in tracer.spans)
        assert any(s.name == "shm_publish" for s in tracer.spans)

    def test_blocked_job_traces_tiles(self, pair):
        from repro.parallel import AlignmentWorkerPool

        spec = blocked_spec(n_procs=2, n_bands=4, n_blocks=4)
        with obs.observed() as (tracer, metrics):
            with AlignmentWorkerPool(n_workers=2) as pool:
                pool.run_plan(spec, pair.s, pair.t)
        assert any(s.name == "tile" for s in tracer.spans)
        assert metrics.counter("cells_computed").value >= 400 * 400
        assert metrics.counter("worker_busy_seconds").value > 0

    def test_pool_without_obs_leaves_no_spans(self, pair):
        from repro.parallel import AlignmentWorkerPool

        assert not obs.is_enabled()
        with AlignmentWorkerPool(n_workers=2) as pool:
            pool.run_plan(wavefront_spec(n_procs=2), pair.s, pair.t)
        assert len(obs.get_tracer().spans) == 0


class TestRunnerClocks:
    def test_mp_pipeline_phase_spans_and_gauges(self, pair):
        from repro.strategies import run_mp_pipeline

        with obs.observed() as (tracer, metrics):
            result = run_mp_pipeline(pair.s, pair.t, backend="wavefront", n_workers=2)
        phase_spans = [s for s in tracer.spans if s.category == "phase"]
        assert sorted(s.name for s in phase_spans) == ["phase1", "phase2"]
        phase1 = next(s for s in phase_spans if s.name == "phase1")
        assert phase1.args["cells"] == 400 * 400
        # the stopwatch wraps the span, so the two readings differ by at
        # most the context-manager entry/exit cost
        assert phase1.duration == pytest.approx(result.phase1_seconds, abs=5e-3)
        assert metrics.gauge("phase1_seconds").value == result.phase1_seconds
        assert metrics.gauge("phase1_gcups").value > 0

    def test_sim_pipeline_wall_vs_virtual_clock(self, pair):
        from repro.strategies import run_pipeline

        result = run_pipeline(pair.s, pair.t, strategy="heuristic_block", n_procs=2)
        # virtual cluster seconds and host wall seconds are separate fields
        assert result.wall_seconds > 0.0
        assert result.total_time > 0.0
        assert result.wall_seconds != result.total_time

    def test_mp_pipeline_works_without_obs(self, pair):
        from repro.strategies import run_mp_pipeline

        assert not obs.is_enabled()
        result = run_mp_pipeline(pair.s, pair.t, backend="wavefront", n_workers=2)
        assert result.phase1_seconds > 0
        assert result.wall_seconds == result.phase1_seconds + result.phase2_seconds


class TestReport:
    def test_report_from_real_run(self, pair):
        from repro.strategies import run_mp_pipeline

        with obs.observed() as (tracer, metrics):
            run_mp_pipeline(pair.s, pair.t, backend="wavefront", n_workers=2)
        payload = {
            "traceEvents": tracer.to_chrome_trace(),
            "reproMetrics": metrics.snapshot(),
        }
        rows = phase_rows(payload)
        assert [r["phase"] for r in rows] == ["phase1", "phase2", "total"]
        assert rows[0]["cells"] == 400 * 400
        assert rows[0]["seconds"] > 0
        assert rows[0]["gcups"] > 0
        procs = process_rows(payload)
        assert len(procs) >= 3  # coordinator + 2 workers
        text = render_report(payload)
        assert "GCUPS" in text and "phase1" in text and "cells_computed" in text

    def test_report_empty_trace(self):
        text = render_report({"traceEvents": []})
        assert "no phase spans" in text

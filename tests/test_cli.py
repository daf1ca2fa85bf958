from unittest import mock

import pytest

from repro.cli import build_parser, main
from repro.seq import fasta, synthetic_database, write_fasta


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_align_defaults(self):
        args = build_parser().parse_args(["align", "--demo"])
        assert args.strategy == "heuristic_block"
        assert args.procs == 8

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["align", "--demo", "--strategy", "nope"])

    def test_kernel_is_a_search_option_only(self, capsys):
        """Pairwise alignment has one row path; only search picks a kernel."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["align", "--demo", "--kernel", "striped"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err
        args = build_parser().parse_args(["search", "q.fa", "db.fa", "--kernel", "striped"])
        assert args.kernel == "striped"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["align", "--demo", "--procs", "0"], "--procs"),
            (["align", "--demo", "--procs", "-3"], "--procs"),
            (["align", "--demo", "--workers", "0"], "--workers"),
            (["align", "--demo", "--top", "-1"], "--top"),
            (["search", "q.fa", "db.fa", "--workers", "0"], "--workers"),
            (["search", "q.fa", "db.fa", "--workers", "-2"], "--workers"),
            (["search", "q.fa", "db.fa", "--workers", "two"], "--workers"),
            (["search", "q.fa", "db.fa", "--top", "-1"], "--top"),
            (["search", "q.fa", "db.fa", "--top", "ten"], "--top"),
            (["tune", "--procs", "0"], "--procs"),
            (["trace", "--demo", "--procs", "0"], "--procs"),
        ],
    )
    def test_bad_counts_are_usage_errors_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_zero_top_is_allowed(self):
        assert build_parser().parse_args(["align", "--demo", "--top", "0"]).top == 0
        args = build_parser().parse_args(["search", "q.fa", "db.fa", "--top", "0"])
        assert args.top == 0


class TestAlign:
    def test_demo_align(self, capsys):
        rc = main(["align", "--demo", "--demo-length", "1000", "--procs", "2", "--top", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase 1" in out and "similar regions" in out
        assert "similarity:" in out

    def test_demo_align_accepts_alias_names(self, capsys):
        rc = main(
            ["align", "--demo", "--demo-length", "600",
             "--strategy", "blocked", "--procs", "2", "--top", "1"]
        )
        assert rc == 0
        assert "heuristic_block" in capsys.readouterr().out

    def test_inline_backend_reports_wall_clock(self, capsys):
        rc = main(
            ["align", "--demo", "--demo-length", "600", "--backend", "inline",
             "--strategy", "wavefront", "--procs", "2", "--top", "1"]
        )
        assert rc == 0
        assert "inline execution" in capsys.readouterr().out

    def test_scaled_run_explains_the_phase2_skip(self, capsys):
        rc = main(
            ["align", "--demo", "--demo-length", "600", "--scale", "4",
             "--procs", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase 2 skipped:" in out and "scale=4" in out

    def test_align_fasta_files(self, tmp_path, capsys):
        main(
            [
                "generate",
                str(tmp_path / "a.fa"),
                str(tmp_path / "b.fa"),
                "--length", "1200", "--regions", "1", "--region-length", "80",
            ]
        )
        rc = main(
            [
                "align",
                str(tmp_path / "a.fa"),
                str(tmp_path / "b.fa"),
                "--procs", "2", "--top", "1",
            ]
        )
        assert rc == 0
        assert "align_s:" in capsys.readouterr().out


class TestGenerate:
    def test_writes_fasta(self, tmp_path, capsys):
        rc = main(
            [
                "generate",
                str(tmp_path / "a.fa"),
                str(tmp_path / "b.fa"),
                "--length", "500", "--regions", "1", "--region-length", "60",
            ]
        )
        assert rc == 0
        assert (tmp_path / "a.fa").exists()
        assert "planted region" in capsys.readouterr().out


class TestDotplot:
    def test_demo_dotplot(self, capsys):
        rc = main(["dotplot", "--demo", "--demo-length", "1500", "--threshold", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "similar regions" in out
        assert "+---" in out


class TestReport:
    def test_exports_markdown_and_csv(self, tmp_path, capsys):
        rc = main(["report", "sec6", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sec6.md").exists()
        assert (tmp_path / "sec6.csv").exists()
        assert (tmp_path / "SUMMARY.md").exists()

    def test_unknown_name(self, tmp_path):
        with pytest.raises(ValueError):
            main(["report", "bogus", "--out", str(tmp_path)])


class TestTuneAndTrace:
    def test_tune_prints_ranking(self, capsys):
        rc = main(["tune", "--rows", "10000", "--cols", "10000", "--procs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best blocking multiplier" in out
        assert "<-- best" in out

    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "t.json"
        rc = main(["trace", "--demo", "--demo-length", "500", "--procs", "2",
                   "--out", str(out)])
        assert rc == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)


class TestObs:
    def test_align_trace_and_report(self, tmp_path, capsys):
        """Acceptance: `align --backend pool --trace` yields a Chrome trace with
        spans from >= 2 workers plus the coordinator; `obs report` reads it."""
        import json

        out = tmp_path / "t.json"
        rc = main(
            [
                "align", "--demo", "--demo-length", "500",
                "--backend", "pool", "--workers", "2",
                "--trace", str(out), "--metrics",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "GCUPS" in printed and "phase1" in printed

        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        procs = {e["args"]["process"] for e in events}
        assert "coordinator" in procs
        assert {"worker-0", "worker-1"} <= procs
        assert "reproMetrics" in payload

        rc = main(["obs", "report", str(out)])
        assert rc == 0
        report = capsys.readouterr().out
        assert "phase1" in report and "phase2" in report and "GCUPS" in report


class TestExperiment:
    def test_unknown_name(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiment", "table99"])

    def test_sec6(self, capsys):
        rc = main(["experiment", "sec6"])
        assert rc == 0
        assert "~30%" in capsys.readouterr().out


class TestCheck:
    def test_plans_sweep_alone_is_clean(self, capsys):
        rc = main(["check", "--plans"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_no_paths_and_no_plans_is_a_usage_error(self, capsys):
        rc = main(["check"])
        assert rc == 2
        assert "need paths" in capsys.readouterr().out

    def test_baseline_ratchet(self, tmp_path, capsys, monkeypatch):
        """Known findings pass against their own report; new ones fail."""
        import json

        # Relative paths: rule scoping (core/...) is path-derived.
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "core"
        bad.mkdir()
        (bad / "multi_engine.py").write_text(
            "import numpy as np\nPAD = np.int8(-300)\n"
        )
        rc = main(["check", "core", "--format", "json"])
        assert rc == 1
        report = capsys.readouterr().out
        assert json.loads(report)["count"] == 1
        baseline = tmp_path / "base.json"
        baseline.write_text(report)

        # Same tree vs its own report: the known finding is tolerated.
        rc = main(["check", "core", "--baseline", str(baseline)])
        assert rc == 0
        assert "1 known, 0 fixed, 0 new" in capsys.readouterr().out

        # A second regression is new and fails the gate.
        (bad / "striped_helper.py").write_text(
            "import numpy as np\nCAP = np.int16(90000)\n"
        )
        rc = main(["check", "core", "--baseline", str(baseline)])
        assert rc == 1
        assert "1 new" in capsys.readouterr().out


class TestSearch:
    @pytest.fixture
    def db_path(self, tmp_path):
        path = tmp_path / "db.fa"
        write_fasta(path, synthetic_database(n=20, min_length=40, max_length=80, rng=3))
        return path

    def test_reads_only_the_first_query_record(self, tmp_path, db_path, capsys):
        query = tmp_path / "q.fa"
        # The second record is malformed: parsing it would raise.
        query.write_bytes(b">first\n" + b"ACGT" * 20 + b"\n>second\n" + b"G" * 200 + b"\xff\n")
        with mock.patch.object(fasta, "_BLOCK", 32):
            rc = main(["search", str(query), str(db_path), "--top", "3"])
        assert rc == 0
        assert "query first (80 bp) vs 20 sequences" in capsys.readouterr().out

    def test_empty_query_file_exits(self, tmp_path, db_path):
        query = tmp_path / "q.fa"
        query.write_bytes(b"\n")
        with pytest.raises(SystemExit, match="empty query FASTA"):
            main(["search", str(query), str(db_path)])


class TestBenchKernelsOnly:
    """``bench kernels --only`` reruns the named entries and merges them in."""

    ENTRIES = (
        ("alpha", "alpha", lambda quick, rounds, results: {"alpha_gcups": 2.0}),
        ("beta", "beta", lambda quick, rounds, results: {"beta_gcups": 3.0}),
    )

    @pytest.fixture
    def bench_file(self, tmp_path, monkeypatch):
        from repro.analysis import bench

        monkeypatch.setattr(bench, "ENTRIES", self.ENTRIES)
        path = tmp_path / "BENCH_kernels.json"
        bench.write_bench(
            {
                "_machine": {"quick": False, "python": "x"},
                "alpha": {"alpha_gcups": 1.0, "note": "old"},
                "beta": {"beta_gcups": 0.1234567890123, "samples": 5},
                "retired": {"retired_gcups": 9.87654321e-05},
            },
            path,
        )
        return path

    def test_merges_named_entries_and_keeps_the_rest_byte_identical(self, bench_file):
        before = bench_file.read_text().splitlines()
        assert main(["bench", "kernels", "--only", "alpha", "--out", str(bench_file)]) == 0
        after = bench_file.read_text().splitlines()
        changed = [line for line in after if line not in before]
        assert changed == ['    "alpha_gcups": 2.0'], changed
        assert '    "note": "old",' not in after  # the entry is replaced whole
        kept = [line for line in before if '"alpha' not in line and '"note"' not in line]
        assert [line for line in after if '"alpha' not in line] == kept

    def test_unknown_entry_or_quick_mismatch_leaves_the_file(self, bench_file, capsys):
        before = bench_file.read_bytes()
        out = str(bench_file)
        assert main(["bench", "kernels", "--only", "alpha,gamma", "--out", out]) == 2
        assert "gamma" in capsys.readouterr().out
        assert main(["bench", "kernels", "--only", "alpha", "--quick", "--out", out]) == 2
        assert bench_file.read_bytes() == before

"""CLI tests for the observability flags (--profile/--trace-out/--log-level)."""

import json
import logging

import pytest

from repro.cli import main
from repro.datasets import paper_running_example
from repro.obs.report import read_trace, validate_run_record
from repro.timeseries.io import save_transactional_database


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.tsv"
    save_transactional_database(paper_running_example(), path)
    return str(path)


BASE = ["--per", "2", "--min-ps", "3", "--min-rec", "2"]


class TestMineProfile:
    def test_profile_prints_phase_table_to_stderr(
        self, example_file, capsys
    ):
        code = main(["mine", "--input", example_file, *BASE, "--profile"])
        captured = capsys.readouterr()
        assert code == 0
        # stdout is the unchanged pattern table ...
        assert "8 recurring patterns" in captured.out
        assert "first_scan" not in captured.out
        # ... the phase table and counters go to stderr.
        for phase in ("transform", "first_scan", "tree_build", "mine"):
            assert phase in captured.err
        assert "patterns_found" in captured.err

    def test_trace_out_writes_valid_run_record(
        self, example_file, tmp_path, capsys
    ):
        trace = tmp_path / "run.jsonl"
        code = main([
            "mine", "--input", example_file, *BASE,
            "--trace-out", str(trace),
        ])
        assert code == 0
        records = read_trace(str(trace))
        assert [r["kind"] for r in records[:-1]] == ["span"] * (
            len(records) - 1
        )
        final = records[-1]
        validate_run_record(final)
        assert final["patterns_found"] == 8
        assert final["engine"] == "rp-growth"

    def test_trace_lines_are_individually_parseable(
        self, example_file, tmp_path, capsys
    ):
        trace = tmp_path / "run.jsonl"
        assert main([
            "mine", "--input", example_file, *BASE,
            "--trace-out", str(trace),
        ]) == 0
        for line in trace.read_text().splitlines():
            json.loads(line)

    def test_profiled_run_mines_identical_patterns(
        self, example_file, capsys
    ):
        assert main(["mine", "--input", example_file, *BASE]) == 0
        plain = capsys.readouterr().out
        assert main([
            "mine", "--input", example_file, *BASE,
            "--profile", "--track-memory",
        ]) == 0
        profiled = capsys.readouterr().out
        assert profiled == plain

    def test_track_memory_reports_peaks(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file, *BASE,
            "--profile", "--track-memory",
        ])
        assert code == 0
        assert "peak mem" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["rp-eclat", "rp-eclat-vec", "naive"])
    def test_every_engine_supports_profiling(
        self, example_file, tmp_path, capsys, engine
    ):
        trace = tmp_path / "run.jsonl"
        code = main([
            "mine", "--input", example_file, *BASE,
            "--engine", engine, "--profile", "--trace-out", str(trace),
        ])
        assert code == 0
        final = read_trace(str(trace))[-1]
        validate_run_record(final)
        assert final["engine"] == engine
        assert final["counters"]["patterns_found"] == 8

    def test_noise_tolerant_path_profiles_too(self, tmp_path, capsys):
        from repro.timeseries.database import TransactionalDatabase

        db = TransactionalDatabase([(ts, "a") for ts in [1, 2, 3, 5, 6, 7]])
        path = tmp_path / "noisy.tsv"
        save_transactional_database(db, path)
        trace = tmp_path / "noise.jsonl"
        code = main([
            "mine", "--input", str(path), "--per", "1", "--min-ps", "4",
            "--max-faults", "1", "--profile", "--trace-out", str(trace),
        ])
        assert code == 0
        final = read_trace(str(trace))[-1]
        validate_run_record(final)
        assert final["engine"] == "noise-tolerant"


class TestBaselineProfile:
    def test_profile_and_trace(self, example_file, tmp_path, capsys):
        trace = tmp_path / "baseline.jsonl"
        code = main([
            "baseline", "--input", example_file, "--model", "p-pattern",
            "--per", "2", "--min-sup", "4",
            "--profile", "--trace-out", str(trace),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "p-pattern patterns" in captured.out
        assert "run" in captured.err
        final = read_trace(str(trace))[-1]
        validate_run_record(final)
        assert final["engine"] == "baseline/p-pattern"


class TestBenchTrace:
    def test_trace_out_emits_one_run_record_per_cell(self, tmp_path, capsys):
        trace = tmp_path / "bench.jsonl"
        code = main([
            "bench", "--dataset", "quest", "--scale", "0.005",
            "--pers", "10", "50", "--min-ps", "0.01", "--min-recs", "1",
            "--trace-out", str(trace), "--profile",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "quest: seconds" in captured.out  # runtime sweep implied
        assert "phase totals" in captured.err
        records = read_trace(str(trace))
        assert len(records) == 2  # one per (per, min_ps, min_rec) cell
        for record in records:
            validate_run_record(record)
            assert record["dataset"] == "quest"
            assert any(s["name"] == "mine" for s in record["spans"])


class TestProgressFlag:
    def test_progress_streams_lines_to_stderr(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file, *BASE, "--progress",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "8 recurring patterns" in captured.out
        # capsys stderr is not a TTY, so lines append plainly.
        assert "mine[rp-growth]: 1/1 (100%)" in captured.err
        assert "rp-growth: 8 patterns" in captured.err

    def test_no_progress_is_silent(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file, *BASE, "--no-progress",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "1/1" not in captured.err

    def test_progress_flags_are_mutually_exclusive(
        self, example_file, capsys
    ):
        with pytest.raises(SystemExit):
            main([
                "mine", "--input", example_file, *BASE,
                "--progress", "--no-progress",
            ])

    def test_progress_does_not_change_stdout(self, example_file, capsys):
        assert main(["mine", "--input", example_file, *BASE]) == 0
        plain = capsys.readouterr().out
        assert main([
            "mine", "--input", example_file, *BASE, "--progress",
        ]) == 0
        assert capsys.readouterr().out == plain

    def test_every_long_subcommand_accepts_the_flag(
        self, example_file, tmp_path, capsys
    ):
        assert main([
            "mine", "--input", example_file, *BASE, "--no-progress",
        ]) == 0
        assert main([
            "baseline", "--input", example_file, "--model", "p-pattern",
            "--per", "2", "--min-sup", "4", "--no-progress",
        ]) == 0
        assert main([
            "sweep", "--input", example_file, "--pers", "2",
            "--min-ps", "3", "--min-recs", "2", "--no-progress",
        ]) == 0
        assert main([
            "bench", "--dataset", "quest", "--scale", "0.005",
            "--pers", "50", "--min-ps", "0.01", "--min-recs", "1",
            "--no-progress",
        ]) == 0
        capsys.readouterr()

    def test_sweep_progress_counts_cells(self, example_file, capsys):
        code = main([
            "sweep", "--input", example_file, "--pers", "2",
            "--min-ps", "3", "--min-recs", "1", "2", "--progress",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "sweep: 2/2 (100%)" in captured.err

    def test_qa_progress_reports_suite_boundaries(self, capsys):
        code = main([
            "qa", "--budget", "5", "--skip", "golden",
            "--skip", "differential", "--engines", "rp-growth",
            "--relation-cases", "0", "--report", "-", "--progress",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "qa: relations" in captured.err
        assert "passed" in captured.err


class TestMetricsOut:
    def test_metrics_out_writes_valid_snapshots(
        self, example_file, tmp_path, capsys
    ):
        from repro.obs.metrics import validate_metrics_record

        metrics = tmp_path / "metrics.jsonl"
        code = main([
            "mine", "--input", example_file, *BASE,
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        records = read_trace(str(metrics))
        assert records
        for record in records:
            validate_metrics_record(record)
        names = {e["name"] for e in records[-1]["counters"]}
        assert "repro_mining_patterns_found_total" in names
        assert "repro_runs_total" in names

    def test_bench_metrics_out_single_file_both_sweeps(
        self, tmp_path, capsys
    ):
        from repro.obs.metrics import validate_metrics_record

        metrics = tmp_path / "metrics.jsonl"
        code = main([
            "bench", "--dataset", "quest", "--scale", "0.005",
            "--pers", "50", "--min-ps", "0.01", "--min-recs", "1",
            "--runtime", "--metrics-out", str(metrics),
        ])
        capsys.readouterr()
        assert code == 0
        records = read_trace(str(metrics))
        assert records
        for record in records:
            validate_metrics_record(record)
        # One shared monitor: the final snapshot accumulates both the
        # count sweep and the runtime sweep (2 cells + repeats).
        counters = {
            e["name"]: e["value"] for e in records[-1]["counters"]
        }
        assert counters.get("repro_sweep_cells_mined_total", 0) >= 2


class TestTraceSubcommand:
    def _write_run_trace(self, example_file, tmp_path, name="run.jsonl"):
        trace = tmp_path / name
        assert main([
            "mine", "--input", example_file, *BASE,
            "--trace-out", str(trace),
        ]) == 0
        return str(trace)

    def test_renders_tree_phases_critical_path(
        self, example_file, tmp_path, capsys
    ):
        trace = self._write_run_trace(example_file, tmp_path)
        capsys.readouterr()
        code = main(["trace", "--input", trace])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 run" in out
        assert "span tree:" in out
        assert "per-phase aggregate" in out
        assert "critical path:" in out
        assert "8 patterns" in out

    def test_compare_renders_deltas(self, example_file, tmp_path, capsys):
        a = self._write_run_trace(example_file, tmp_path, "a.jsonl")
        b = self._write_run_trace(example_file, tmp_path, "b.jsonl")
        capsys.readouterr()
        code = main(["trace", "--input", a, "--compare", b])
        out = capsys.readouterr().out
        assert code == 0
        assert "A (s)" in out and "B (s)" in out
        assert "patterns: A=8 B=8" in out
        assert "DIFFER" not in out

    def test_reads_sweep_and_qa_traces(self, tmp_path, capsys):
        trace = tmp_path / "qa.jsonl"
        assert main([
            "qa", "--budget", "5", "--skip", "golden",
            "--skip", "differential", "--engines", "rp-growth",
            "--relation-cases", "0", "--no-progress",
            "--report", str(trace),
        ]) == 0
        capsys.readouterr()
        code = main(["trace", "--input", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 qa" in out
        assert "qa: PASS" in out

    def test_malformed_trace_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        code = main(["trace", "--input", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err


class TestLogLevel:
    def test_log_level_wires_stdlib_logging(self, example_file, capsys):
        root = logging.getLogger()
        previous_handlers = root.handlers[:]
        previous_level = root.level
        try:
            root.handlers = []
            code = main([
                "mine", "--input", example_file, *BASE,
                "--profile", "--log-level", "debug",
            ])
            assert code == 0
            assert root.level == logging.DEBUG
        finally:
            root.handlers = previous_handlers
            root.level = previous_level

    def test_log_level_accepted_by_every_subcommand(self, tmp_path):
        out = tmp_path / "g.tsv"
        assert main([
            "generate", "--dataset", "quest", "--scale", "0.005",
            "--output", str(out), "--log-level", "warning",
        ]) == 0
        assert main([
            "stats", "--input", str(out), "--log-level", "warning",
        ]) == 0

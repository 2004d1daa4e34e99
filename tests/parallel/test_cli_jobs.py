"""The ``--jobs`` / ``--chunk-timeout`` / ``--max-retries`` flags
across CLI subcommands."""

import pytest

from repro.cli import main
from repro.datasets import paper_running_example
from repro.timeseries.io import save_transactional_database

BASE = ["--per", "2", "--min-ps", "3", "--min-rec", "2"]


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.tsv"
    save_transactional_database(paper_running_example(), path)
    return str(path)


class TestMineJobs:
    def test_parallel_mine_prints_the_same_table(
        self, example_file, capsys
    ):
        assert main(["mine", "--input", example_file, *BASE]) == 0
        serial_out = capsys.readouterr().out
        assert main([
            "mine", "--input", example_file, *BASE, "--jobs", "2",
        ]) == 0
        assert capsys.readouterr().out == serial_out

    def test_jobs_with_engine_flag(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file, *BASE,
            "--engine", "rp-eclat-vec", "--jobs", "2",
        ])
        assert code == 0
        assert "8 recurring patterns" in capsys.readouterr().out

    def test_naive_engine_rejects_jobs(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file, *BASE,
            "--engine", "naive", "--jobs", "2",
        ])
        assert code != 0
        assert "naive" in capsys.readouterr().err

    def test_noise_tolerant_path_warns_and_stays_serial(
        self, example_file, capsys
    ):
        code = main([
            "mine", "--input", example_file, *BASE,
            "--max-faults", "1", "--jobs", "2",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "--jobs ignored" in captured.err


class TestResilienceFlags:
    def test_mine_accepts_chunk_timeout_and_max_retries(
        self, example_file, capsys
    ):
        code = main([
            "mine", "--input", example_file, *BASE, "--jobs", "2",
            "--chunk-timeout", "30", "--max-retries", "1",
        ])
        assert code == 0
        assert "8 recurring patterns" in capsys.readouterr().out

    def test_resilience_flags_are_serial_noops(self, example_file, capsys):
        """With --jobs 1 the flags parse but change nothing."""
        assert main(["mine", "--input", example_file, *BASE]) == 0
        serial_out = capsys.readouterr().out
        code = main([
            "mine", "--input", example_file, *BASE,
            "--chunk-timeout", "5", "--max-retries", "0",
        ])
        assert code == 0
        assert capsys.readouterr().out == serial_out

    def test_bench_accepts_resilience_flags(self, capsys):
        code = main([
            "bench", "--dataset", "quest", "--scale", "0.005",
            "--pers", "50", "--min-ps", "0.01", "--min-recs", "1",
            "--jobs", "2", "--chunk-timeout", "60", "--max-retries", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "quest: count" in out


class TestBaselineJobs:
    def test_baseline_warns_jobs_ignored(self, example_file, capsys):
        code = main([
            "baseline", "--input", example_file,
            "--model", "periodic-frequent",
            "--per", "2", "--min-sup", "3", "--jobs", "2",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "--jobs ignored" in captured.err


class TestBenchJobs:
    def test_bench_accepts_jobs(self, capsys):
        code = main([
            "bench", "--dataset", "quest", "--scale", "0.005",
            "--pers", "50", "--min-ps", "0.01", "--min-recs", "1",
            "--jobs", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "quest: count" in out

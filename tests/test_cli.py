"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets import paper_running_example
from repro.timeseries.io import save_transactional_database


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.tsv"
    save_transactional_database(paper_running_example(), path)
    return str(path)


class TestMine:
    def test_reproduces_table2(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file,
            "--per", "2", "--min-ps", "3", "--min-rec", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "8 recurring patterns" in out
        assert "a b" in out
        assert "[1, 4]:3" in out

    def test_engine_flag(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file,
            "--per", "2", "--min-ps", "3", "--min-rec", "2",
            "--engine", "rp-eclat-vec",
        ])
        assert code == 0
        assert "8 recurring patterns" in capsys.readouterr().out

    def test_top_flag_limits_rows(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file,
            "--per", "2", "--min-ps", "3", "--min-rec", "2", "--top", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # header + rule + title + 2 rows
        assert len(out.strip().splitlines()) == 5

    def test_fractional_min_ps(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file,
            "--per", "2", "--min-ps", "0.25", "--min-rec", "2",
        ])
        assert code == 0
        assert "8 recurring patterns" in capsys.readouterr().out

    def test_events_format(self, tmp_path, capsys):
        from repro.datasets import paper_running_example_events
        from repro.timeseries.io import save_event_sequence

        path = tmp_path / "events.tsv"
        save_event_sequence(paper_running_example_events(), path)
        code = main([
            "mine", "--input", str(path), "--format", "events",
            "--per", "2", "--min-ps", "3", "--min-rec", "2",
        ])
        assert code == 0
        assert "8 recurring patterns" in capsys.readouterr().out

    def test_missing_file_reports_error(self, capsys):
        code = main([
            "mine", "--input", "/nonexistent/file",
            "--per", "2", "--min-ps", "3",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_parameters_report_error(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file,
            "--per", "-4", "--min-ps", "3",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestGenerateAndStats:
    def test_generate_then_stats(self, tmp_path, capsys):
        out_path = str(tmp_path / "quest.tsv")
        assert main([
            "generate", "--dataset", "quest",
            "--scale", "0.005", "--output", out_path,
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["stats", "--input", out_path]) == 0
        out = capsys.readouterr().out
        assert "transactions" in out
        assert "distinct items" in out

    def test_generate_clickstream(self, tmp_path, capsys):
        out_path = str(tmp_path / "shop.tsv")
        assert main([
            "generate", "--dataset", "clickstream",
            "--scale", "0.05", "--output", out_path,
        ]) == 0

    def test_generate_to_unwritable_path(self, capsys):
        code = main([
            "generate", "--dataset", "quest",
            "--scale", "0.005", "--output", "/nonexistent/dir/x.tsv",
        ])
        assert code == 1


class TestBenchAndCompare:
    def test_bench_prints_grid(self, capsys):
        code = main([
            "bench", "--dataset", "quest", "--scale", "0.005",
            "--pers", "10", "50",
            "--min-ps", "0.01",
            "--min-recs", "1", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "quest: count" in out
        assert "rec=1,per=10" in out

    def test_bench_runtime_flag(self, capsys):
        code = main([
            "bench", "--dataset", "quest", "--scale", "0.005",
            "--pers", "10",
            "--min-ps", "0.01",
            "--min-recs", "1",
            "--runtime",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "quest: seconds" in out

    def test_compare(self, capsys):
        code = main([
            "compare", "--dataset", "quest", "--scale", "0.005",
            "--per", "50", "--min-sup", "0.01", "--min-ps", "0.01",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "model comparison" in out
        assert "p-pattern" in out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_engine_rejected_by_parser(self, example_file):
        with pytest.raises(SystemExit):
            main([
                "mine", "--input", example_file,
                "--per", "2", "--min-ps", "3", "--engine", "bogus",
            ])


class TestMineExtensions:
    def test_noise_tolerant_flag(self, tmp_path, capsys):
        from repro.timeseries.database import TransactionalDatabase

        db = TransactionalDatabase([(ts, "a") for ts in [1, 2, 3, 5, 6, 7]])
        path = tmp_path / "noisy.tsv"
        save_transactional_database(db, path)
        base = ["mine", "--input", str(path), "--per", "1", "--min-ps", "4"]
        assert main(base) == 0
        assert "0 recurring patterns" in capsys.readouterr().out
        assert main(base + ["--max-faults", "1"]) == 0
        assert "1 recurring patterns" in capsys.readouterr().out

    def test_closed_flag(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file,
            "--per", "2", "--min-ps", "3", "--min-rec", "2", "--closed",
        ])
        assert code == 0
        assert "4 recurring patterns" in capsys.readouterr().out

    def test_maximal_flag(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file,
            "--per", "2", "--min-ps", "3", "--min-rec", "2", "--maximal",
        ])
        assert code == 0
        assert "3 recurring patterns" in capsys.readouterr().out

    def test_closed_and_maximal_conflict(self, example_file):
        with pytest.raises(SystemExit):
            main([
                "mine", "--input", example_file,
                "--per", "2", "--min-ps", "3", "--closed", "--maximal",
            ])

    def test_timeline_flag(self, example_file, capsys):
        code = main([
            "mine", "--input", example_file,
            "--per", "2", "--min-ps", "3", "--min-rec", "2", "--timeline",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "█" in out


class TestRulesCommand:
    def test_rules_listing(self, example_file, capsys):
        code = main([
            "rules", "--input", example_file,
            "--per", "2", "--min-ps", "3", "--min-rec", "2",
            "--min-confidence", "0.8",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "recurring association rules" in out
        assert "b => a" in out


class TestBaselineCommand:
    @pytest.mark.parametrize(
        "model,needle",
        [
            ("frequent", "frequent patterns"),
            ("periodic-frequent", "periodic-frequent patterns"),
            ("p-pattern", "p-pattern patterns"),
            ("partial-periodic", "partial-periodic patterns"),
            ("async-periodic", "async-periodic patterns"),
        ],
    )
    def test_each_model_runs(self, example_file, capsys, model, needle):
        code = main([
            "baseline", "--input", example_file, "--model", model,
            "--per", "2", "--min-sup", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert needle in out

    def test_unknown_model_rejected(self, example_file):
        with pytest.raises(SystemExit):
            main([
                "baseline", "--input", example_file, "--model", "bogus",
                "--min-sup", "2",
            ])


class TestSavePatterns:
    def test_save_and_reload(self, example_file, tmp_path, capsys):
        from repro.patterns_io import load_patterns

        out = tmp_path / "patterns.tsv"
        code = main([
            "mine", "--input", example_file,
            "--per", "2", "--min-ps", "3", "--min-rec", "2",
            "--save-patterns", str(out),
        ])
        assert code == 0
        reloaded = load_patterns(out)
        assert len(reloaded) == 8
        assert reloaded.pattern("ab").support == 7

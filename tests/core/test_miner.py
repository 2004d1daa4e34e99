"""Unit tests for the public mining façade."""

import io
import warnings

import pytest

from repro.cli import main
from repro.core.engines import engine_names
from repro.core.miner import mine_recurring_patterns
from repro.core.options import ObservabilityOptions
from repro.exceptions import ParameterError
from repro.obs.progress import MiningMonitor
from repro.obs.spans import SpanCollector
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import EventSequence
from repro.timeseries.io import save_transactional_database


class TestInputHandling:
    def test_accepts_database(self, running_example):
        found = mine_recurring_patterns(
            running_example, per=2, min_ps=3, min_rec=2
        )
        assert len(found) == 8

    def test_accepts_event_sequence(self, running_example_events):
        found = mine_recurring_patterns(
            running_example_events, per=2, min_ps=3, min_rec=2
        )
        assert len(found) == 8

    def test_event_sequence_and_database_agree(
        self, running_example, running_example_events
    ):
        assert mine_recurring_patterns(
            running_example_events, per=2, min_ps=3, min_rec=2
        ) == mine_recurring_patterns(
            running_example, per=2, min_ps=3, min_rec=2
        )

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            mine_recurring_patterns([(1, "a")], per=1, min_ps=1)

    def test_min_rec_defaults_to_one(self, running_example):
        by_default = mine_recurring_patterns(running_example, per=2, min_ps=3)
        explicit = mine_recurring_patterns(
            running_example, per=2, min_ps=3, min_rec=1
        )
        assert by_default == explicit


class TestEngineSelection:
    @pytest.mark.parametrize("engine", engine_names())
    def test_all_engines_agree(self, running_example, engine):
        found = mine_recurring_patterns(
            running_example, per=2, min_ps=3, min_rec=2, engine=engine
        )
        assert len(found) == 8

    def test_unknown_engine(self, running_example):
        with pytest.raises(ParameterError, match="unknown engine"):
            mine_recurring_patterns(
                running_example, per=2, min_ps=3, engine="quantum"
            )

    def test_empty_input(self):
        for engine in engine_names():
            found = mine_recurring_patterns(
                TransactionalDatabase(), per=1, min_ps=1, engine=engine
            )
            assert len(found) == 0


class TestUntracedPath:
    """Default options build no telemetry machinery in this process.

    No span collector, no dataset digest and no live monitor, in this
    process or in a ``jobs=2`` pool's workers (see
    ``tests/parallel/test_parallel_miner.py``).
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_builds_no_collector_digest_or_monitor(
        self, running_example, monkeypatch, jobs
    ):
        calls = []
        for owner, name in (
            (SpanCollector, "__init__"),
            (MiningMonitor, "__init__"),
            (TransactionalDatabase, "digest"),
        ):
            original = getattr(owner, name)

            def spy(self, *args, _original=original, _owner=owner, **kw):
                calls.append(_owner.__name__)
                return _original(self, *args, **kw)

            monkeypatch.setattr(owner, name, spy)
        found = mine_recurring_patterns(
            running_example, per=2, min_ps=3, min_rec=2, jobs=jobs
        )
        assert len(found) == 8
        assert calls == []
        # The spies do see the traced path.
        mine_recurring_patterns(
            running_example, per=2, min_ps=3, min_rec=2, jobs=jobs,
            observability=ObservabilityOptions(
                collect_stats=True, metrics=io.StringIO()
            ),
        )
        assert set(calls) == {
            "SpanCollector", "MiningMonitor", "TransactionalDatabase",
        }


class TestFractionalMinPsOfOne:
    """A fractional min_ps that resolves to one transaction warns."""

    def test_only_a_fraction_resolving_to_one_warns(self, running_example):
        assert len(running_example) == 12
        with pytest.warns(RuntimeWarning, match="resolves to 1 transaction"):
            mine_recurring_patterns(running_example, per=2, min_ps=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mine_recurring_patterns(running_example, per=2, min_ps=0.25)
            mine_recurring_patterns(running_example, per=2, min_ps=1)

    def test_cli_stdout_is_unchanged(self, running_example, tmp_path, capsys):
        path = tmp_path / "example.tsv"
        save_transactional_database(running_example, path)
        base = ["mine", "--input", str(path), "--per", "2"]
        with pytest.warns(RuntimeWarning, match="resolves to 1 transaction"):
            assert main([*base, "--min-ps", "0.05"]) == 0
        fractional = capsys.readouterr().out
        assert main([*base, "--min-ps", "1"]) == 0
        deliberate = capsys.readouterr().out
        assert fractional.replace("minPS=0.05", "minPS=1") == deliberate

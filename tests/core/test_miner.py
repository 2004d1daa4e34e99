"""Unit tests for the public mining façade."""

import pytest

from repro.core.engines import engine_names
from repro.core.miner import mine_recurring_patterns
from repro.exceptions import ParameterError
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import EventSequence


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

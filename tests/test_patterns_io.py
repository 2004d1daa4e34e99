"""Round-trip tests for pattern-set persistence."""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import mine_recurring_patterns
from repro.core.model import (
    PeriodicInterval,
    RecurringPattern,
    RecurringPatternSet,
)
from repro.core.rp_growth import RPGrowth
from repro.exceptions import DataFormatError
from repro.patterns_io import (
    count_patterns_tsv,
    filter_patterns_tsv,
    load_patterns,
    save_patterns,
)
from tests.conftest import mining_parameters, small_databases


@pytest.fixture
def table2(running_example):
    return mine_recurring_patterns(running_example, 2, 3, 2)


class TestRoundTrip:
    def test_via_path(self, tmp_path, table2):
        path = tmp_path / "patterns.tsv"
        save_patterns(table2, path)
        assert load_patterns(path) == table2

    def test_via_handle(self, table2):
        buffer = io.StringIO()
        save_patterns(table2, buffer)
        buffer.seek(0)
        assert load_patterns(buffer) == table2

    def test_empty_set(self):
        from repro.core.model import RecurringPatternSet

        buffer = io.StringIO()
        save_patterns(RecurringPatternSet(), buffer)
        buffer.seek(0)
        assert len(load_patterns(buffer)) == 0

    def test_float_boundaries_survive(self):
        from repro.timeseries.database import TransactionalDatabase

        db = TransactionalDatabase(
            [(0.5, "a"), (1.0, "a"), (1.5, "a")]
        )
        found = mine_recurring_patterns(db, per=0.5, min_ps=3)
        buffer = io.StringIO()
        save_patterns(found, buffer)
        buffer.seek(0)
        assert load_patterns(buffer) == found

    def test_multi_char_items_survive(self):
        from repro.timeseries.database import TransactionalDatabase

        db = TransactionalDatabase(
            [(ts, ["link_down", "bgp_flap"]) for ts in range(5)]
        )
        found = mine_recurring_patterns(db, per=1, min_ps=5)
        buffer = io.StringIO()
        save_patterns(found, buffer)
        buffer.seek(0)
        assert load_patterns(buffer) == found

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(db=small_databases(), params=mining_parameters())
    def test_random_pattern_sets(self, db, params):
        per, min_ps, min_rec = params
        found = RPGrowth(per, min_ps, min_rec).mine(db)
        buffer = io.StringIO()
        save_patterns(found, buffer)
        buffer.seek(0)
        assert load_patterns(buffer) == found


def _tsv(patterns) -> str:
    buffer = io.StringIO()
    save_patterns(patterns, buffer)
    return buffer.getvalue()


#: Boundaries the writer spells as ints, as ``repr`` floats (``0.5``,
#: ``1e-05``, ``-2.5e+20``) and as huge ints from integral floats.
_BOUNDS = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _patterns(draw, items):
    """A pattern with 1 to 14 intervals on sorted random boundaries."""
    recurrence = draw(st.integers(1, 14))
    bounds = sorted(
        draw(st.lists(_BOUNDS, min_size=2 * recurrence,
                      max_size=2 * recurrence))
    )
    intervals = tuple(
        PeriodicInterval(bounds[2 * i], bounds[2 * i + 1],
                         draw(st.integers(1, 10**4)))
        for i in range(recurrence)
    )
    return RecurringPattern(
        items=items, support=draw(st.integers(1, 10**6)),
        intervals=intervals,
    )


@st.composite
def pattern_sets(draw):
    itemsets = draw(st.lists(
        st.frozensets(
            st.sampled_from(["a", "b", "link_down", "i42", "x.y", "Ü"]),
            min_size=1,
        ),
        max_size=12, unique=True,
    ))
    return RecurringPatternSet(
        draw(_patterns(items)) for items in itemsets
    )


class TestRecurrenceFilter:
    """The row filter the service cache derives tighter cells with."""

    @settings(max_examples=150, deadline=None)
    @given(patterns=pattern_sets())
    def test_equals_saving_the_filtered_set(self, patterns):
        text = _tsv(patterns)
        assert count_patterns_tsv(text) == len(patterns)
        longest = max((p.recurrence for p in patterns), default=0)
        for k in range(1, longest + 2):
            kept = filter_patterns_tsv(text, k)
            expected = patterns.filter(min_recurrence=k)
            assert kept == _tsv(expected), k
            assert count_patterns_tsv(kept) == len(expected)

    def test_keeps_rows_with_enough_intervals(self, table2):
        text = _tsv(table2)
        assert filter_patterns_tsv(text, 1) == text
        assert filter_patterns_tsv(text, 2) == text  # mined at min_rec 2
        only_header = filter_patterns_tsv(text, 3)
        assert only_header == "# repro recurring patterns v1\n"
        assert count_patterns_tsv(only_header) == 0


class TestMalformedInput:
    def test_missing_header(self):
        with pytest.raises(DataFormatError, match="header"):
            load_patterns(io.StringIO("a\t1\t1:1:1\n"))

    def test_wrong_column_count(self):
        text = "# repro recurring patterns v1\na\t1\n"
        with pytest.raises(DataFormatError, match="3 tab-separated"):
            load_patterns(io.StringIO(text))

    def test_bad_support(self):
        text = "# repro recurring patterns v1\na\tmany\t1:2:2\n"
        with pytest.raises(DataFormatError, match="bad support"):
            load_patterns(io.StringIO(text))

    def test_bad_interval(self):
        text = "# repro recurring patterns v1\na\t2\t1-2-2\n"
        with pytest.raises(DataFormatError, match="bad interval"):
            load_patterns(io.StringIO(text))

    def test_comments_and_blanks_tolerated(self, table2):
        buffer = io.StringIO()
        save_patterns(table2, buffer)
        text = buffer.getvalue() + "\n# trailing comment\n"
        assert load_patterns(io.StringIO(text)) == table2


class TestSeparatorSafety:
    def test_items_with_spaces_rejected(self):
        from repro.core.model import (
            PeriodicInterval,
            RecurringPattern,
            RecurringPatternSet,
        )

        patterns = RecurringPatternSet([
            RecurringPattern(
                items=frozenset({"two words"}),
                support=3,
                intervals=(PeriodicInterval(1, 3, 3),),
            )
        ])
        with pytest.raises(DataFormatError, match="separator"):
            save_patterns(patterns, io.StringIO())

    def test_items_with_colon_rejected(self):
        from repro.core.model import (
            PeriodicInterval,
            RecurringPattern,
            RecurringPatternSet,
        )

        patterns = RecurringPatternSet([
            RecurringPattern(
                items=frozenset({"a:b"}),
                support=3,
                intervals=(PeriodicInterval(1, 3, 3),),
            )
        ])
        with pytest.raises(DataFormatError):
            save_patterns(patterns, io.StringIO())

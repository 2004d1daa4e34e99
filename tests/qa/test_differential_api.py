"""Unit tests for the promoted differential-testing API.

``repro.qa.differential`` is library code now (the relations checker
and the qa gate build on it), so its pieces — the canonical view, the
minimizer, the sweep driver — get direct coverage here, independent of
the slow randomized sweep in ``test_differential_random.py``.
"""

import random

import pytest

from repro.core.miner import mine_recurring_patterns
from repro.datasets import paper_running_example
from repro.qa.differential import (
    BASE_SEED,
    CaseParams,
    DifferentialFailure,
    canonical,
    check_case,
    disagrees_with_oracle,
    format_reproducer,
    mine_canonical,
    minimize_case,
    oracle_canonical,
    random_params,
    random_rows,
    run_differential,
)

RUNNING_EXAMPLE_ROWS = tuple(
    (ts, tuple(sorted(items, key=repr)))
    for ts, items in paper_running_example()
)
PARAMS = CaseParams(per=2, min_ps=3, min_rec=2)


# ----------------------------------------------------------------------
# Canonical views
# ----------------------------------------------------------------------
def test_canonical_is_order_independent():
    patterns = mine_recurring_patterns(paper_running_example(), 2, 3, 2)
    forward = canonical(patterns)
    backward = canonical(reversed(list(patterns)))
    assert forward == backward
    # Every entry is (items, support, recurrence, intervals).
    items, support, recurrence, intervals = forward[0]
    assert isinstance(items, tuple) and all(isinstance(i, str) for i in items)
    assert support >= 1 and recurrence == len(intervals)


def test_mine_canonical_matches_oracle_on_running_example():
    for engine in ("rp-growth", "rp-eclat", "rp-eclat-vec"):
        assert mine_canonical(RUNNING_EXAMPLE_ROWS, PARAMS, engine) == \
            oracle_canonical(RUNNING_EXAMPLE_ROWS, PARAMS)


def test_disagrees_with_oracle_false_on_agreement_and_empty():
    assert not disagrees_with_oracle(RUNNING_EXAMPLE_ROWS, PARAMS, "rp-growth")
    assert not disagrees_with_oracle([], PARAMS, "rp-growth")
    assert not disagrees_with_oracle([(1, ""), (2, "")], PARAMS, "rp-growth")


# ----------------------------------------------------------------------
# Generation determinism
# ----------------------------------------------------------------------
def test_generation_is_seed_deterministic():
    a = random.Random(BASE_SEED)
    b = random.Random(BASE_SEED)
    assert random_rows(a) == random_rows(b)
    assert random_params(random.Random(7)) == random_params(random.Random(7))


# ----------------------------------------------------------------------
# The minimizer
# ----------------------------------------------------------------------
def test_minimize_case_shrinks_to_one_minimal_core():
    rows = [(ts, "a") for ts in range(10)] + [(50, "bc"), (60, "d")]
    # The property: at least 4 rows carrying item "a" survive.
    predicate = lambda trial: sum("a" in items for _, items in trial) >= 4
    minimal = minimize_case(rows, predicate)
    assert predicate(minimal)
    assert len(minimal) == 4
    # 1-minimality: removing any single remaining row breaks the property.
    for index in range(len(minimal)):
        assert not predicate(minimal[:index] + minimal[index + 1:])


def test_minimize_case_returns_input_when_predicate_fails():
    rows = [(1, "a"), (2, "b")]
    assert minimize_case(rows, lambda trial: False) == rows


def test_minimize_case_does_not_mutate_input():
    rows = [(1, "a"), (2, "a"), (3, "a")]
    before = list(rows)
    minimize_case(rows, lambda trial: len(trial) >= 1)
    assert rows == before


def test_format_reproducer_is_paste_ready():
    text = format_reproducer([(1, "ab")], PARAMS, "rp-eclat", 2)
    assert "TransactionalDatabase" in text
    assert "mine_recurring_patterns" in text
    assert "engine='rp-eclat'" in text and "jobs=2" in text


# ----------------------------------------------------------------------
# check_case and the sweep driver
# ----------------------------------------------------------------------
def test_check_case_clean_on_running_example():
    checks, failures = check_case(
        seed=0, rows=RUNNING_EXAMPLE_ROWS, params=PARAMS,
        jobs_values=(1, 2),
    )
    assert failures == []
    assert checks == 6  # three pruning engines x two jobs levels


def test_check_case_skips_empty_database():
    checks, failures = check_case(seed=0, rows=[(3, "")], params=PARAMS)
    assert (checks, failures) == (0, [])


def test_run_differential_small_sweep_passes():
    result = run_differential(n_cases=5, base_seed=BASE_SEED)
    assert result.passed
    assert result.cases == 5
    assert result.checks >= 3 * (5 - result.skipped_empty)


def test_run_differential_deadline_stops_cleanly():
    result = run_differential(n_cases=50, deadline=0.0)
    assert result.cases == 0 and result.passed


def test_failure_report_names_seed_and_reproducer():
    failure = DifferentialFailure(
        seed=123, engine="rp-eclat", jobs=1, params=PARAMS,
        rows=((1, ("a",)),), minimized_rows=((1, ("a",)),),
        oracle=(), got=((("a",), 1, 1, ()),),
    )
    text = failure.describe()
    assert "seed: 123" in text
    assert "minimized reproducer" in text
    assert "TransactionalDatabase" in text
    record = failure.as_dict()
    assert record["seed"] == 123
    assert record["params"] == {"per": 2, "min_ps": 3, "min_rec": 2}
    assert record["minimized_rows"] == [[1, ("a",)]]

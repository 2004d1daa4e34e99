"""Tests for the metamorphic-relation registry and checker.

The fast lane checks every registered relation on the running example
across the full engine × jobs matrix (the same cells the ``repro qa``
gate exercises) and verifies the failure path: a deliberately broken
relation must produce a *minimized* reproducer naming its seed.
"""

import pytest

from repro.core.engines import engine_names
from repro.qa.differential import CaseParams
from repro.qa.relations import (
    RELATIONS,
    MetamorphicRelation,
    RelationCase,
    check_relation,
    default_case_corpus,
    engine_matrix,
    get_relation,
    run_relations,
    running_example_case,
)
from repro.timeseries.database import TransactionalDatabase

MATRIX = engine_matrix()


def _normalized(rows):
    """TDB content as comparable (timestamp, sorted-items) pairs."""
    return [
        (ts, tuple(sorted(items, key=repr)))
        for ts, items in TransactionalDatabase(rows)
    ]


# ----------------------------------------------------------------------
# Registry shape
# ----------------------------------------------------------------------
def test_registry_holds_the_eight_relations():
    assert [r.name for r in RELATIONS] == [
        "time-shift",
        "item-relabel",
        "time-scale",
        "concat-disjoint",
        "event-duplication",
        "stream-batch",
        "stream-checkpoint-resume",
        "shard-merge",
    ]
    for relation in RELATIONS:
        assert relation.description and relation.paper_basis


def test_get_relation_round_trips_and_rejects_unknown():
    assert get_relation("time-shift") is RELATIONS[0]
    with pytest.raises(KeyError, match="no-such-relation"):
        get_relation("no-such-relation")


def test_engine_matrix_covers_all_engines_naive_serial_only():
    assert set(MATRIX) == {
        ("rp-growth", 1), ("rp-growth", 2),
        ("rp-eclat", 1), ("rp-eclat", 2),
        ("rp-eclat-vec", 1), ("rp-eclat-vec", 2),
        ("naive", 1),
    }
    assert engine_matrix(engine_names(), jobs_values=(1,)) == [
        (engine, 1) for engine in engine_names()
    ]


# ----------------------------------------------------------------------
# Relations hold on the running example, full matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("relation", RELATIONS, ids=lambda r: r.name)
@pytest.mark.parametrize("engine,jobs", MATRIX, ids=lambda v: str(v))
def test_relation_holds_on_running_example(relation, engine, jobs):
    case = running_example_case()
    assert check_relation(relation, case, engine, jobs) is None


def test_relations_hold_on_random_corpus_serial():
    result = run_relations(
        cases=default_case_corpus(n_random=2), jobs_values=(1,)
    )
    assert result.passed, "\n\n".join(
        v.describe() for v in result.violations
    )
    engines = len(engine_names())
    assert result.cases_checked == len(RELATIONS) * engines * 3


# ----------------------------------------------------------------------
# The transforms themselves
# ----------------------------------------------------------------------
def test_event_duplication_transform_is_a_tdb_no_op():
    case = running_example_case()
    transformed, params = get_relation("event-duplication").transform(
        case.rows, case.params
    )
    assert params == case.params
    assert len(transformed) > len(case.rows)
    assert _normalized(transformed) == _normalized(case.rows)


def test_concat_transform_doubles_the_database_disjointly():
    case = running_example_case()
    transformed, _ = get_relation("concat-disjoint").transform(
        case.rows, case.params
    )
    base = TransactionalDatabase(case.rows)
    doubled = TransactionalDatabase(transformed)
    assert len(doubled) == 2 * len(base)
    # The seam gap must exceed per so no periodic run crosses it.
    base_end = max(ts for ts, _ in base)
    first_copy_ts = min(
        ts for ts, _ in doubled if ts > base_end
    )
    assert first_copy_ts - base_end > case.params.per


# ----------------------------------------------------------------------
# Corpus construction
# ----------------------------------------------------------------------
def test_default_case_corpus_is_deterministic_and_non_empty():
    first = default_case_corpus(n_random=3)
    second = default_case_corpus(n_random=3)
    assert first == second
    assert first[0].label == "running-example"
    assert len(first) == 4
    for case in first:
        assert len(TransactionalDatabase(case.rows)) > 0
        # Thresholds are pre-resolved: concat-disjoint needs absolute
        # counts, so no fractional min_ps may survive corpus build.
        assert isinstance(case.params.min_ps, int)


# ----------------------------------------------------------------------
# The failure path: a broken relation yields a minimized reproducer
# ----------------------------------------------------------------------
def test_broken_relation_reports_minimized_reproducer_with_seed():
    shift = get_relation("time-shift")
    # Deliberately wrong prediction: claims a global time shift leaves
    # the intervals untouched.  Every engine must refute it.
    broken = MetamorphicRelation(
        name="bogus-shift-invariance",
        description="time shift wrongly predicted to be a full no-op",
        paper_basis="none - this relation is intentionally false",
        transform=shift.transform,
        expected=lambda mine, rows, params: mine(rows, params),
    )
    case = RelationCase(
        "seeded-running-example", 77,
        running_example_case().rows, CaseParams(2, 3, 2),
    )
    violation = check_relation(broken, case, "rp-growth", jobs=1)
    assert violation is not None
    assert violation.relation == "bogus-shift-invariance"
    # Minimization shrank the base case but kept the violation alive.
    assert 0 < len(violation.minimized_rows) < len(case.rows)
    assert violation.expected != violation.got
    report = violation.describe()
    assert "seed: 77" in report
    assert "minimized base case" in report
    assert "TransactionalDatabase" in report  # paste-ready reproducer
    record = violation.as_dict()
    assert record["seed"] == 77
    assert record["minimized_rows"] == [
        list(row) for row in violation.minimized_rows
    ]


def test_run_relations_collects_violations_of_a_broken_relation():
    broken = MetamorphicRelation(
        name="bogus-scale-invariance",
        description="timestamp scaling wrongly predicted to be a no-op",
        paper_basis="none - this relation is intentionally false",
        transform=get_relation("time-scale").transform,
        expected=lambda mine, rows, params: mine(rows, params),
    )
    result = run_relations(
        cases=[running_example_case()],
        relations=[broken],
        engines=("rp-growth", "rp-eclat"),
        jobs_values=(1,),
        minimize=False,
    )
    assert not result.passed
    assert len(result.violations) == 2
    assert {c.violations for c in result.checks} == {1}


def test_run_relations_deadline_still_covers_every_cell():
    # An already-expired deadline must trim extra cases, not the matrix.
    result = run_relations(
        cases=default_case_corpus(n_random=2),
        jobs_values=(1,),
        deadline=0.0,
    )
    assert result.passed
    assert all(check.cases == 1 for check in result.checks)
    assert len(result.checks) == len(RELATIONS) * len(engine_names())

"""The constructor's canonical form, pinned byte for byte.

Rows arrive unsorted, repeat a timestamp (as ``2`` and ``2.0``, and
three times at ``5``), hold an empty itemset and pass a string as the
items iterable.  The transactions and the digest must not depend on
how the constructor builds each itemset, and every view of a
database must match a reference built from row objects, however the
database was built.  An item spelled several ways (``1``, ``1.0``,
``True``) keeps its first spelling, as a timestamp does.
"""

import hashlib
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accel import as_timestamp_array
from repro.timeseries.database import Transaction, TransactionalDatabase
from repro.timeseries.io import (
    load_transactional_database,
    save_transactional_database,
)

ROWS = [
    (5, "ba"),
    (2, ["x", "y"]),
    (4.5, ("w",)),
    (5, ("c",)),
    (3, []),
    (2.0, {"y", "z"}),
    (1, "q"),
    (5, "a"),
]

#: ``hashlib.sha256`` of the canonical lines, computed once and frozen.
DIGEST = "cb482c501b0caa376361678cc4a662bfe76e143d1882a59c466e2d141efc80df"


def test_transactions_are_sorted_merged_and_non_empty():
    db = TransactionalDatabase(ROWS)
    assert db.transactions == (
        Transaction(1, frozenset({"q"})),
        Transaction(2, frozenset({"x", "y", "z"})),
        Transaction(4.5, frozenset({"w"})),
        Transaction(5, frozenset({"a", "b", "c"})),
    )
    # The first spelling of a repeated timestamp is the one kept.
    assert [type(t.ts) for t in db] == [int, int, float, int]
    assert all(type(t.items) is frozenset for t in db)


def test_digest_is_pinned():
    assert TransactionalDatabase(ROWS).digest() == DIGEST
    assert TransactionalDatabase(reversed(ROWS)).digest() == DIGEST


def test_an_item_keeps_its_first_spelling():
    db = TransactionalDatabase([(3, [True]), (1, [1, "a"]), (2, [1.0])])
    assert db.item_labels == ("a", True)
    assert [sorted(map(repr, items)) for _, items in db] == [
        ["'a'", "True"], ["True"], ["True"],
    ]
    assert db.digest() == TransactionalDatabase(
        [(1, ["a", True]), (2, [True]), (3, [True])]
    ).digest()


def test_rebuilding_from_transactions_is_identity():
    db = TransactionalDatabase(ROWS)
    again = TransactionalDatabase(db.transactions)
    assert again.transactions == db.transactions
    assert again.digest() == DIGEST


# ----------------------------------------------------------------------
# The same database however it is built
# ----------------------------------------------------------------------
# Items whose repr order differs from their str order ("a!" before
# "a", "it's" quoted with '"'), with no whitespace so a file holds them.
ITEMS = ["a", "b", "a!", "it's", "x\\y", "z"]
# Items equal to others but spelled differently: 1 == 1.0 == True and
# np.str_("a") == "a".
SPELLINGS = [1, 1.0, True, np.str_("a")]

TIMESTAMPS = st.one_of(
    st.integers(-3, 6),
    st.integers(-3, 6).map(float),  # 2.0 repeats 2
    st.sampled_from([0.5, 2.5, -1.25]),
)


def row_lists(items):
    itemsets = st.one_of(
        st.lists(st.sampled_from(items), max_size=5),  # repeats, empty
        st.frozensets(st.sampled_from(items)),
        st.text(alphabet="abz", max_size=3),  # a string is its characters
    )
    return st.lists(st.tuples(TIMESTAMPS, itemsets), max_size=25)


# The transaction format writes str items only.
ROW_LISTS = row_lists(ITEMS)


def reference_rows(rows):
    """The constructor's row form, built the way row objects were: a
    dict merge of frozensets that keeps a timestamp's first spelling,
    sorted by timestamp, empty itemsets dropped; every item takes its
    first spelling."""
    spelling = {}
    merged = {}
    for ts, items in rows:
        itemset = frozenset(spelling.setdefault(item, item) for item in items)
        if itemset:
            first = merged.setdefault(ts, itemset)
            if first is not itemset:
                merged[ts] = first | itemset
    return tuple(Transaction(ts, merged[ts]) for ts in sorted(merged))


def reference_index(transactions):
    index = {}
    for ts, itemset in transactions:
        for item in itemset:
            index.setdefault(item, []).append(ts)
    return {item: tuple(index[item]) for item in sorted(index, key=repr)}


def reference_digest(transactions):
    hasher = hashlib.sha256()
    for ts, itemset in transactions:
        if isinstance(ts, float) and ts.is_integer():
            ts = int(ts)
        items = " ".join(sorted(repr(item) for item in itemset))
        hasher.update(f"{ts!r}\t{items}\n".encode("utf-8"))
    return hasher.hexdigest()


def reference_columnar(transactions):
    """The item CSR found by one ``searchsorted`` per item."""
    timestamps = as_timestamp_array([ts for ts, _ in transactions])
    index = reference_index(transactions)
    dtype = np.int32
    rows = [
        np.searchsorted(timestamps, np.asarray(ts_list)).astype(dtype)
        for ts_list in index.values()
    ]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows], out=indptr[1:])
    indices = np.concatenate(rows) if rows else np.zeros(0, dtype=dtype)
    return timestamps, tuple(index), indptr, indices


def spelled(transactions):
    return [(repr(ts), sorted(map(repr, items))) for ts, items in transactions]


def assert_matches(db, expected):
    assert db.transactions == expected
    assert spelled(db) == spelled(expected)
    assert list(db) == list(expected)
    assert len(db) == len(expected)
    if expected:
        assert (db.start, db.end) == (expected[0].ts, expected[-1].ts)
    assert db.items() == frozenset().union(*(items for _, items in expected))
    index = reference_index(expected)
    assert db.item_timestamps() == index
    assert list(map(repr, db.item_timestamps())) == list(map(repr, index))
    assert db.digest() == reference_digest(expected)


@settings(max_examples=150, deadline=None)
@given(
    rows=row_lists(ITEMS + SPELLINGS),
    bounds=st.tuples(TIMESTAMPS, TIMESTAMPS).map(sorted),
    keep=st.frozensets(st.sampled_from(ITEMS + SPELLINGS)),
)
def test_every_view_matches_the_row_reference(rows, bounds, keep):
    expected = reference_rows(rows)
    db = TransactionalDatabase(iter(rows))
    assert_matches(db, expected)
    assert TransactionalDatabase(rows) == db

    lo, hi = bounds
    assert db.window(lo, hi).transactions == tuple(
        row for row in expected if lo <= row.ts <= hi
    )
    assert db.restrict_items(keep).transactions == reference_rows(
        (ts, items & keep) for ts, items in expected
    )

    column = db.columnar()
    for got, want in zip(column, reference_columnar(expected)):
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=ROW_LISTS)
def test_a_saved_and_reloaded_database_is_the_same(rows):
    db = TransactionalDatabase(rows)
    buffer = io.StringIO()
    save_transactional_database(db, buffer)
    buffer.seek(0)
    reloaded = load_transactional_database(buffer)
    # The file spells an int-valued float as an int; nothing else moves.
    assert reloaded == db
    assert reloaded.digest() == db.digest()
    assert reloaded.item_labels == db.item_labels
    assert_matches(reloaded, reference_rows(
        (int(ts) if isinstance(ts, float) and ts.is_integer() else ts, items)
        for ts, items in reference_rows(rows)
    ))

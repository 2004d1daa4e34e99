"""The constructor's canonical form, pinned byte for byte.

Rows arrive unsorted, repeat a timestamp (as ``2`` and ``2.0``, and
three times at ``5``), hold an empty itemset and pass a string as the
items iterable.  The transactions and the digest must not depend on
how the constructor builds each itemset.
"""

from repro.timeseries.database import Transaction, TransactionalDatabase

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


def test_rebuilding_from_transactions_is_identity():
    db = TransactionalDatabase(ROWS)
    again = TransactionalDatabase(db.transactions)
    assert again.transactions == db.transactions
    assert again.digest() == DIGEST

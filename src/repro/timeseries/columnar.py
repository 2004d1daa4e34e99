"""Columnar (vertical, array-backed) view of a transactional database.

The pure-python :class:`~repro.timeseries.database.TransactionalDatabase`
stores its transactions row by row, as item ids in stdlib arrays — the
layout of a scan in time order, not of a per-item NumPy kernel.  This
module materialises the same information once, item by item, as NumPy
arrays, the backbone of the ``rp-eclat-vec`` engine
(:mod:`repro.core.rp_eclat_vec`):

* ``timestamps`` — one sorted ``int64`` (or ``float64``) array with the
  timestamp of every transaction; position in this array is the
  *transaction id*;
* ``items`` / ``indptr`` / ``indices`` — a CSR-style index: item ``i``
  (in deterministic sorted-by-``repr`` order) occurs in the transactions
  ``indices[indptr[i]:indptr[i + 1]]``, each row strictly increasing.

Ts-lists become integer index arrays into ``timestamps``, so set
intersection is array intersection and interval extraction is one
``np.diff`` sweep over a gather (see ``docs/performance.md``,
"Columnar kernel").

The view is transposed from the database's id rows
(:meth:`~repro.timeseries.database.TransactionalDatabase.id_rows`): one
stable sort of the flat item-id column groups each item's transaction
ids, already in time order.  It is cached on the database
(:meth:`~repro.timeseries.database.TransactionalDatabase.columnar`), so
repeated mines and sweep columns share one materialisation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence, Tuple

import numpy as np

from repro.timeseries.events import Item

if TYPE_CHECKING:  # pragma: no cover - typing only
    from array import array

    from repro._validation import Number

__all__ = ["ColumnarTDB"]


class ColumnarTDB(NamedTuple):
    """Immutable columnar view of a :class:`TransactionalDatabase`.

    Examples
    --------
    >>> from repro.timeseries.database import TransactionalDatabase
    >>> db = TransactionalDatabase([(1, "ab"), (3, "a"), (4, "ab")])
    >>> column = db.columnar()
    >>> column.timestamps
    array([1, 3, 4])
    >>> column.items
    ('a', 'b')
    >>> column.item_rows(1)  # transaction ids containing 'b'
    array([0, 2], dtype=int32)
    """

    timestamps: np.ndarray
    items: Tuple[Item, ...]
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_id_rows(
        cls,
        timestamps: Sequence[Number],
        items: Tuple[Item, ...],
        ids: "array[int]",
        offsets: "array[int]",
    ) -> "ColumnarTDB":
        """Transpose a database's id rows into the item CSR.

        ``ids`` is the flat ``array('i')`` of every transaction's item
        ids (positions in ``items``), ``offsets`` its ``array('q')`` of
        row bounds; both are read in place, without a copy.

        Raises
        ------
        ParameterError
            If timestamps overflow int64, sit in the diff-unsafe range
            (|ts| >= 2**62), or mix large integers into a float column
            (see :func:`repro.core.accel.as_timestamp_array`).
        """
        from repro.core.accel import as_timestamp_array

        timestamps = as_timestamp_array(timestamps)
        index_dtype = np.int32 if timestamps.size < 2 ** 31 else np.int64
        flat = np.frombuffer(ids, dtype=np.intc)
        row_of = np.repeat(
            np.arange(timestamps.size, dtype=index_dtype),
            np.diff(np.frombuffer(offsets, dtype=np.int64)),
        )
        # A stable sort by item id keeps each item's rows in time order.
        indices = row_of[np.argsort(flat, kind="stable")]
        indptr = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=len(items)), out=indptr[1:])
        return cls(timestamps, items, indptr, indices)

    @property
    def n_transactions(self) -> int:
        """Number of transactions (the id universe for ``indices``)."""
        return self.timestamps.size

    def item_rows(self, position: int) -> np.ndarray:
        """Transaction ids containing item ``position`` (a view, not a copy)."""
        return self.indices[self.indptr[position] : self.indptr[position + 1]]

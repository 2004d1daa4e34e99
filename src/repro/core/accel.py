"""NumPy primitives of the columnar kernel.

The pure-Python implementations in :mod:`repro.core.intervals` are the
reference semantics; this module provides the vectorised pieces the
batched columnar engine (:mod:`repro.core.rp_eclat_vec`) is built
from, property-tested byte-identical to their pure counterparts
(``tests/core/test_accel_equivalence.py``):

* the *segmented* kernel :func:`segmented_interval_stats`, which runs
  one ``np.diff`` + run-length-encoding pass over **many point
  sequences concatenated into one array** and returns per-segment
  ``Erec``/``Rec`` plus every interesting run — one call replaces a
  whole python loop of per-candidate evaluations;
* sorted-array ts-list intersection :func:`intersect_arrays`
  (``np.intersect1d`` with a dense-bitmap gather for high-support
  operands — see ``docs/performance.md`` for the crossover);
* the dtype guard :func:`as_timestamp_array`, which converts raw
  timestamps to a columnar ``int64``/``float64`` array and raises
  :class:`~repro.exceptions.ParameterError` instead of silently
  wrapping when scaled timestamps approach the int64 edge.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro._validation import Number, check_count, check_positive
from repro.exceptions import ParameterError

__all__ = [
    "segmented_interval_stats",
    "intersect_arrays",
    "as_timestamp_array",
    "INT64_SAFE_BOUND",
]

#: Largest timestamp magnitude the int64 kernels accept.  The bound is
#: ``2**62`` — not ``2**63`` — because the kernels subtract adjacent
#: timestamps (``np.diff``), and a difference of two values in
#: ``(-2**62, 2**62)`` is guaranteed to fit in int64, whereas values
#: nearer the edge could make the *difference* wrap silently.
INT64_SAFE_BOUND = 2 ** 62

#: Exact-integer range of float64; above this, integers folded into a
#: float column (mixed int/float input) would silently lose precision.
_FLOAT64_EXACT_BOUND = 2 ** 53


def as_timestamp_array(values: Sequence[Number]) -> np.ndarray:
    """Convert raw timestamps to the columnar dtype, guarding int64.

    All-integer input becomes ``int64`` (exact for the whole safe
    range, unlike float64 above ``2**53``); any float in the input
    selects ``float64`` (python floats round-trip exactly).  Three
    silent-corruption cases are turned into a clear
    :class:`~repro.exceptions.ParameterError` instead:

    * an integer beyond int64 entirely (numpy would overflow or fall
      back to an object array);
    * an integer of magnitude ≥ ``2**62`` (:data:`INT64_SAFE_BOUND`) —
      it fits int64, but the kernels' ``np.diff`` could wrap.  The
      timestamp × ``per`` scaling relation of the qa suite can push
      scaled inputs here;
    * an integer above ``2**53`` mixed with floats — folding it into
      the float64 column would silently round it.

    Examples
    --------
    >>> as_timestamp_array([1, 5, 6]).dtype
    dtype('int64')
    >>> as_timestamp_array([1, 5.5]).dtype
    dtype('float64')
    """
    values = list(values)
    try:
        array = np.asarray(values)
    except OverflowError:
        raise ParameterError(
            "timestamp overflows int64; the columnar kernel stores "
            "timestamps as int64 — rescale the input (e.g. divide a "
            "nanosecond epoch down) before mining"
        ) from None
    if array.dtype == object:
        raise ParameterError(
            "timestamps do not fit a numeric int64/float64 column "
            "(values beyond the int64 range); rescale the input "
            "before mining"
        )
    if np.issubdtype(array.dtype, np.integer):
        array = array.astype(np.int64, copy=False)
        if array.size and int(np.abs(array).max()) >= INT64_SAFE_BOUND:
            raise ParameterError(
                f"timestamp magnitude >= 2**62 ({int(np.abs(array).max())}); "
                "inter-arrival differences could silently wrap int64 — "
                "rescale the input (scaled timestamps from the "
                "timestamp*per relation are the usual cause)"
            )
        return array
    if not np.issubdtype(array.dtype, np.floating):
        raise ParameterError(
            f"timestamps must be numbers, got dtype {array.dtype!r}"
        )
    array = array.astype(np.float64, copy=False)
    finite = array[np.isfinite(array)]
    if finite.size and float(np.abs(finite).max()) > _FLOAT64_EXACT_BOUND:
        # Only integers *mixed into* a float column lose precision;
        # values that were floats already are stored unchanged.
        for value in values:
            if isinstance(value, int) and abs(value) > _FLOAT64_EXACT_BOUND:
                raise ParameterError(
                    f"integer timestamp {value} mixed with float "
                    "timestamps exceeds float64's exact range (2**53) "
                    "and would be silently rounded; use a uniform "
                    "integer timebase instead"
                )
    return array


def intersect_arrays(
    left: np.ndarray,
    right: np.ndarray,
    universe: Union[int, None] = None,
) -> np.ndarray:
    """Intersection of two strictly increasing arrays, in order.

    The array counterpart of
    :func:`repro.core.rp_eclat.intersect_sorted` (property-tested
    equal).  With ``universe`` — the number of transactions the values
    index into — high-support operands take a dense-bitmap membership
    gather, which is O(|left| + |right|) with tiny constants; sparse
    operands use ``np.intersect1d(assume_unique=True)`` (sort-merge).
    The crossover (combined size ≥ universe / 8) is measured in
    ``benchmarks/bench_kernel.py`` and documented in
    ``docs/performance.md``.

    Examples
    --------
    >>> intersect_arrays(np.array([1, 3, 4, 7]), np.array([3, 7, 9]))
    array([3, 7])
    """
    left = np.asarray(left)
    right = np.asarray(right)
    if (
        universe is not None
        and np.issubdtype(left.dtype, np.integer)
        and np.issubdtype(right.dtype, np.integer)
        and left.size + right.size >= universe >> 3
    ):
        mask = np.zeros(universe, dtype=bool)
        mask[left] = True
        return right[mask[right]]
    return np.intersect1d(left, right, assume_unique=True)


def segmented_interval_stats(
    ts: np.ndarray, starts: np.ndarray, per: Number, min_ps: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment ``Erec``/``Rec`` and interesting runs, one pass.

    ``ts`` is the concatenation of many point sequences (each strictly
    increasing); segment ``i`` spans ``ts[starts[i]:starts[i + 1]]``
    (the last runs to ``ts.size``).  Empty segments — duplicate
    offsets in ``starts`` — are allowed and report zeros.  One
    ``np.diff`` + run-length-encoding sweep scores *every* candidate
    of a lattice node at once, which is what removes the per-candidate
    python loop from the columnar engine.

    Returns
    -------
    ``(erec, rec, run_seg, run_first, run_last)`` where ``erec`` and
    ``rec`` are int64 arrays of length ``len(starts)`` and the last
    three describe every *interesting* run (``ps >= min_ps``): its
    segment id and its first/last inclusive offsets into ``ts``, in
    time order within each segment.

    Examples
    --------
    Two segments of the paper's Example 5 data:

    >>> ts = np.array([1, 3, 4, 7, 11, 12, 14, 1, 5, 6, 7, 12, 14])
    >>> erec, rec, seg, first, last = segmented_interval_stats(
    ...     ts, np.array([0, 7]), per=2, min_ps=3)
    >>> erec.tolist(), rec.tolist()
    ([2, 1], [2, 1])
    """
    check_positive(per, "per")
    check_count(min_ps, "min_ps")
    ts = np.asarray(ts)
    starts = np.asarray(starts, dtype=np.int64)
    return _segmented_interval_stats(ts, starts, per, min_ps)


def _segmented_interval_stats(
    ts: np.ndarray, starts: np.ndarray, per: Number, min_ps: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validation-free core of :func:`segmented_interval_stats`."""
    n = ts.size
    n_seg = starts.size
    if n == 0 or n_seg == 0:
        zeros = np.zeros(n_seg, dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        return zeros, zeros.copy(), empty, empty.copy(), empty.copy()
    # A run breaks at every segment boundary and at every gap > per.
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    np.greater(ts[1:] - ts[:-1], per, out=breaks[1:])
    inner = starts[(starts > 0) & (starts < n)]
    breaks[inner] = True
    run_first = np.flatnonzero(breaks)
    run_last = np.empty_like(run_first)
    run_last[:-1] = run_first[1:] - 1
    run_last[-1] = n - 1
    run_ps = run_last - run_first + 1
    # Attribute each run to the *last* segment starting at or before
    # it — with duplicate offsets (empty segments) the run belongs to
    # the one non-empty segment at that offset.
    run_seg = np.searchsorted(starts, run_first, side="right") - 1
    erec = np.bincount(
        run_seg, weights=run_ps // min_ps, minlength=n_seg
    ).astype(np.int64)
    good = run_ps >= min_ps
    good_seg = run_seg[good]
    rec = np.bincount(good_seg, minlength=n_seg).astype(np.int64)
    return erec, rec, good_seg, run_first[good], run_last[good]

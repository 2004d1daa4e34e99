"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by the library derive from
:class:`ReproError`, so callers can catch one base class.  Parameter
problems additionally derive from :class:`ValueError` and data problems
from :class:`ValueError` as well, which keeps the library friendly to
code that only expects the built-in types.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParameterError",
    "DataFormatError",
    "EmptyDatabaseError",
    "SearchSpaceError",
    "ChunkFailedError",
    "QAGateError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """A mining or generation parameter is out of its documented domain.

    Examples: a negative ``per``, ``min_ps`` of zero, a fraction
    threshold outside ``(0, 1]``.
    """


class DataFormatError(ReproError, ValueError):
    """Input data violates the documented format.

    Examples: an event file line with no timestamp, a transaction with
    an unparsable timestamp, unsorted input where sorted input was
    promised.
    """


class EmptyDatabaseError(ReproError, ValueError):
    """An operation that needs at least one transaction got none."""


class SearchSpaceError(ReproError, RuntimeError):
    """The requested exhaustive search would be astronomically large.

    Raised by the reference (naive) miner when the item universe exceeds
    its configured limit; the purpose of that miner is ground-truth
    verification on small inputs, not production mining.
    """


class ChunkFailedError(ReproError, RuntimeError):
    """A parallel mining chunk failed after exhausting its retries.

    Raised by the resilience layer (``repro.parallel.resilience``) in
    ``fallback="raise"`` mode instead of surfacing a bare
    ``BrokenProcessPool``: it names exactly which search-space prefixes
    were lost and carries everything that *was* mined, so callers can
    degrade gracefully.

    Attributes
    ----------
    failed_prefixes:
        The search-space prefixes (first items for the vertical
        engines, suffix items for RP-growth) whose chunks could not be
        mined, as strings.
    partial:
        A ``RecurringPatternSet`` holding every pattern recovered from
        the chunks that did succeed.  The set is complete for every
        prefix *not* listed in ``failed_prefixes``.
    events:
        The ``FaultEvent`` log of the run — one entry per retry and
        per exhausted chunk, in occurrence order.
    """

    def __init__(
        self,
        message: str,
        *,
        failed_prefixes=(),
        partial=None,
        events=(),
    ):
        super().__init__(message)
        self.failed_prefixes = tuple(failed_prefixes)
        self.partial = partial
        self.events = tuple(events)


class QAGateError(ReproError, RuntimeError):
    """The conformance gate (``repro.qa``) found violations.

    Raised by callers that run the gate programmatically and want a
    failure to be an exception rather than an exit code.  Carries the
    full :class:`~repro.qa.gate.QAReport`, whose
    ``failure_reports()`` include a minimized reproducer per finding.

    Attributes
    ----------
    report:
        The :class:`~repro.qa.gate.QAReport` of the failed run.
    """

    def __init__(self, message: str, *, report=None):
        super().__init__(message)
        self.report = report

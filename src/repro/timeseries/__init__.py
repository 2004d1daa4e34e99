"""Time-series substrate: events, point sequences and transactional databases.

This subpackage implements Definitions 1–2 of the paper (event sequence,
point sequence) and the temporally ordered transactional database the
recurring-pattern model is defined over, together with the
transformation between the two representations and file I/O.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.timeseries.calendar": (
        "MINUTES_PER_DAY", "MINUTES_PER_HOUR", "MINUTES_PER_WEEK",
        "day_and_time", "day_of", "format_minutes", "hour_of_day",
        "minute_of_day", "minutes",
    ),
    "repro.timeseries.columnar": ("ColumnarTDB",),
    "repro.timeseries.database": ("Transaction", "TransactionalDatabase"),
    "repro.timeseries.events": ("Event", "EventSequence"),
    "repro.timeseries.io": (
        "load_event_sequence", "load_transactional_database",
        "save_event_sequence", "save_transactional_database",
    ),
    "repro.timeseries.stats": ("DatabaseStats", "describe_database"),
    "repro.timeseries.transform": (
        "database_to_events", "discretize_timestamps", "events_to_database",
    ),
})

__all__ = [
    "Event",
    "EventSequence",
    "Transaction",
    "TransactionalDatabase",
    "ColumnarTDB",
    "events_to_database",
    "database_to_events",
    "discretize_timestamps",
    "load_event_sequence",
    "save_event_sequence",
    "load_transactional_database",
    "save_transactional_database",
    "DatabaseStats",
    "describe_database",
    "MINUTES_PER_HOUR",
    "MINUTES_PER_DAY",
    "MINUTES_PER_WEEK",
    "minutes",
    "day_of",
    "minute_of_day",
    "hour_of_day",
    "day_and_time",
    "format_minutes",
]

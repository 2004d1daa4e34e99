"""Multi-tenant streaming recurrence: monitors, shards, checkpoints.

This package grows the single-tenant
:class:`~repro.streaming.monitor.StreamingRecurrenceMonitor` into a
service-shaped streaming layer:

:mod:`repro.streaming.monitor`
    The O(1)-per-event monitor, now with batch-equal same-timestamp
    merging and exact ``state_dict``/``from_state`` serialization.
:mod:`repro.streaming.calendar`
    Calendar-anchored periods (hour-of-day / day-of-week) for both
    streaming (:class:`~repro.streaming.calendar.CalendarRecurrenceMonitor`)
    and batch (:func:`~repro.streaming.calendar.mine_calendar_patterns`).
:mod:`repro.streaming.registry`
    :class:`~repro.streaming.registry.ShardedMonitorRegistry` — stable
    hash partitioning, LRU eviction with exact re-admission, and
    ``repro-stream/v1`` checkpoint/restore.
:mod:`repro.streaming.checkpoint`
    The ``repro-stream/v1`` reader/writer and the monitor factory.

The layer's correctness contract — streamed state equals the batch
RP-list on every prefix, and checkpoint→restore→resume equals an
uninterrupted run — is enforced by the QA gate's ``stream-batch`` and
``stream-checkpoint-resume`` metamorphic relations (see
``docs/streaming.md``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.streaming.calendar": (
        "CALENDAR_MODES", "CalendarPeriod", "CalendarRecurrenceMonitor",
        "mine_calendar_patterns",
    ),
    "repro.streaming.checkpoint": (
        "monitor_from_state", "read_checkpoint", "write_checkpoint",
    ),
    "repro.streaming.monitor": (
        "ItemState", "StreamingRecurrenceMonitor", "decode_item",
        "encode_item", "item_sort_key",
    ),
    "repro.streaming.registry": ("ShardedMonitorRegistry", "shard_of"),
})

__all__ = [
    "CALENDAR_MODES",
    "CalendarPeriod",
    "CalendarRecurrenceMonitor",
    "ItemState",
    "ShardedMonitorRegistry",
    "StreamingRecurrenceMonitor",
    "decode_item",
    "encode_item",
    "item_sort_key",
    "mine_calendar_patterns",
    "monitor_from_state",
    "read_checkpoint",
    "shard_of",
    "write_checkpoint",
]

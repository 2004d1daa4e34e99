#!/usr/bin/env python
"""Live monitoring: detect recurring behaviour as events arrive.

Run with::

    python examples/streaming_monitor.py

The batch miners answer "what recurred in this archive?".  An operator
usually asks the online version: "is this alarm pattern *currently*
inside a periodic episode, and how many episodes has it had?"  The
:class:`~repro.streaming.StreamingRecurrenceMonitor` maintains the
paper's Algorithm 1/5 state incrementally — O(1) per event — and fires
a callback the moment an interesting periodic-interval closes.

The script replays a synthetic ops stream minute by minute and prints
alerts as episodes of the watched alarm pair complete.
"""

import numpy as np

from repro import StreamingRecurrenceMonitor
from repro.viz import render_sparkline

MINUTES = 3_000
EPISODES = ((300, 700), (1_600, 2_100))  # alarm storms (minute ranges)


def synthesize_stream(seed: int = 5):
    """Yield (minute, [events...]) pairs: heartbeats + alarm storms."""
    rng = np.random.default_rng(seed)
    storm_next = {start: start for start, _ in EPISODES}
    for minute in range(MINUTES):
        events = []
        if minute % 15 == 0:
            events.append("heartbeat")
        for start, end in EPISODES:
            if start <= minute < end and minute >= storm_next[start]:
                events.extend(["disk_err", "raid_degraded"])
                storm_next[start] = minute + 1 + int(rng.exponential(3.0))
        if rng.random() < 0.02:
            events.append(f"warn_{rng.integers(0, 5)}")
        if events:
            yield minute, events


def main() -> None:
    alerts = []

    def on_interval(item, interval):
        if item == "disk+raid":
            alerts.append(interval)
            print(
                f"  ALERT closed episode: correlated disk/raid alarms "
                f"minutes {interval.start:g}-{interval.end:g} "
                f"({interval.periodic_support} repetitions)"
            )

    monitor = StreamingRecurrenceMonitor(
        per=20, min_ps=20, min_rec=2, on_interval=on_interval
    )
    monitor.watch_pattern(["disk_err", "raid_degraded"], label="disk+raid")

    print(f"replaying {MINUTES} minutes of ops events...\n")
    was_recurring = False
    for minute, events in synthesize_stream():
        monitor.observe(minute, events)
        if not was_recurring and monitor.is_recurring("disk+raid"):
            was_recurring = True
            print(
                f"  minute {minute}: the disk/raid pattern has now RECURRED "
                f"{monitor.recurrence('disk+raid', include_open_run=True)} times"
            )

    print("\nfinal state:")
    print(f"  heartbeat support: {monitor.support('heartbeat')}")
    print(
        "  heartbeat episodes:",
        [str(iv) for iv in monitor.intervals("heartbeat", include_open_run=True)],
    )
    print(f"  disk+raid episodes: {[str(iv) for iv in alerts]}")

    # A quick per-100-minute activity profile of the alarm pair.
    state = monitor.state("disk+raid")
    buckets = [0] * (MINUTES // 100)
    for interval in monitor.intervals("disk+raid", include_open_run=True):
        for minute in range(int(interval.start), int(interval.end) + 1):
            buckets[minute // 100] += 1
    print(f"  activity profile: {render_sparkline(buckets)}")
    assert state.support > 0


if __name__ == "__main__":
    main()

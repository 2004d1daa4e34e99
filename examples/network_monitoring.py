#!/usr/bin/env python
"""Network-event monitoring: rare severe events vs routine maintenance.

Run with::

    python examples/network_monitoring.py

The paper's introduction motivates recurring patterns for network
administrators: high-severity events (a cascading failure that flares
up in episodes) matter more than routine periodic events (nightly
backups), yet a single global support threshold either misses the rare
failures or drowns in noise.

This example builds a raw event log from scratch — timestamps are
seconds, so it also demonstrates the discretisation step — and mines it
with the full pipeline::

    raw events -> discretize -> group into transactions -> mine
"""

import numpy as np

from repro import EventSequence, mine_recurring_patterns
from repro.bench.reporting import format_table
from repro.timeseries.transform import discretize_timestamps, events_to_database

MINUTE = 60.0
HOUR = 60 * MINUTE
DAY = 24 * HOUR
SIMULATION_DAYS = 30


def synthesize_log(seed: int = 0) -> EventSequence:
    """A month of syslog-style events with second timestamps."""
    rng = np.random.default_rng(seed)
    events = []

    # Routine: nightly backup at ~02:00 touching two subsystems.
    for day in range(SIMULATION_DAYS):
        ts = day * DAY + 2 * HOUR + float(rng.normal(0, 120))
        events.append(("backup_start", ts))
        events.append(("db_snapshot", ts))

    # Routine: health-check heartbeat every 15 minutes, all month.
    ts = 0.0
    while ts < SIMULATION_DAYS * DAY:
        events.append(("heartbeat", ts))
        ts += 15 * MINUTE + float(rng.normal(0, 20))

    # Rare + severe: two cascading-failure episodes (days 6-8, 21-23)
    # where link-down and bgp-flap alarms fire every few minutes.
    for first_day, last_day in ((6, 8), (21, 23)):
        ts = first_day * DAY
        while ts < (last_day + 1) * DAY:
            events.append(("link_down", ts))
            events.append(("bgp_flap", ts))
            ts += float(rng.exponential(4 * MINUTE)) + 30.0

    # Background: uncorrelated warning chatter.
    n_noise = 4000
    for _ in range(n_noise):
        item = f"warn_{rng.integers(0, 40)}"
        events.append((item, float(rng.uniform(0, SIMULATION_DAYS * DAY))))

    return EventSequence(events)


def main() -> None:
    raw = synthesize_log()
    print(f"raw log: {len(raw)} events with second-granularity timestamps")

    # Snap to minutes, then group co-occurring events into transactions.
    database = events_to_database(
        discretize_timestamps(raw, bucket=MINUTE, label="index")
    )
    print(f"database: {len(database)} minute-transactions, "
          f"{len(database.items())} event types")

    # Mine with per = 1 hour: an episode is a stretch where the pattern
    # repeats at least every hour, for at least 30 repetitions, in at
    # least 2 distinct episodes.
    minutes_per_day = int(DAY / MINUTE)
    found = mine_recurring_patterns(
        database, per=60, min_ps=30, min_rec=2, engine="rp-eclat-vec"
    )

    rows = [
        (
            " ".join(map(str, p.sorted_items())),
            p.support,
            p.recurrence,
            "; ".join(
                f"day {int(iv.start) // minutes_per_day}"
                f"-{int(iv.end) // minutes_per_day}"
                for iv in p.intervals
            ),
        )
        for p in found
    ]
    print()
    print(
        format_table(
            ["pattern", "sup", "rec", "episodes"],
            rows,
            title="Recurring event patterns (per=1h, minPS=30, minRec=2)",
        )
    )

    failure = found.get(["link_down", "bgp_flap"])
    if failure is None:
        raise SystemExit("expected the cascading-failure pattern!")
    print()
    print("cascading failure episodes pinpointed:")
    for interval in failure.intervals:
        start_day = interval.start / minutes_per_day
        end_day = interval.end / minutes_per_day
        print(
            f"  days {start_day:5.1f} .. {end_day:5.1f}: "
            f"{interval.periodic_support} correlated alarms"
        )
    print(
        "\nthe heartbeat/backup routines recur all month (recurrence 1 at "
        "month scale),\nwhile the severe {link_down, bgp_flap} pattern is "
        "rare globally but precisely\nlocalised — exactly the asymmetry "
        "the paper's introduction calls for."
    )


if __name__ == "__main__":
    main()

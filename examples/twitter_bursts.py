#!/usr/bin/env python
"""Bursty hashtags in a Twitter-style stream (paper Table 6 / Figure 8).

Run with::

    python examples/twitter_bursts.py

Generates a hashtag stream modelled on the paper's 2013 Twitter corpus:
a Zipfian background of always-on hashtags plus rare, event-driven
hashtag groups that are intensely periodic only during their events
(floods, elections, a tornado).  Recurring-pattern mining surfaces the
event groups *with their time windows* — including rare hashtags a
global support threshold would miss — and a daily frequency profile
reproduces the shape of the paper's Figure 8.
"""

from repro import mine_recurring_patterns
from repro.bench.reporting import format_series, format_table
from repro.datasets import TwitterConfig, generate_twitter
from repro.datasets.twitter import DEFAULT_BURSTS, MINUTES_PER_DAY
from repro.timeseries.stats import item_frequency_series

DAYS = 90  # covers every default burst window


def day_of(ts: float) -> int:
    return int(ts) // MINUTES_PER_DAY


def main() -> None:
    database = generate_twitter(TwitterConfig(days=DAYS, seed=13))
    print(
        f"hashtag stream: {len(database)} minute-transactions over "
        f"{DAYS} days, {len(database.items())} hashtags"
    )

    # per = 6 hours, minRec = 1 — the paper's Table 6 setting.  The
    # paper uses minPS = 2% of its 177k-transaction corpus; 1% of this
    # smaller stream admits the same four event groups.
    found = mine_recurring_patterns(
        database,
        per=360,
        min_ps=0.01,
        min_rec=1,
        engine="rp-eclat-vec",
    )
    print(f"\n{len(found)} recurring patterns in total")

    # The planted event groups (the Table 6 analogues).
    burst_tags = {tag for burst in DEFAULT_BURSTS for tag in burst.tags}
    event_patterns = [
        p for p in found
        if set(map(str, p.items)) <= burst_tags and p.length >= 2
    ]
    rows = [
        (
            " ".join(f"#{item}" for item in p.sorted_items()),
            p.support,
            p.recurrence,
            "; ".join(
                f"day {day_of(iv.start)} - day {day_of(iv.end)}"
                for iv in p.intervals
            ),
        )
        for p in event_patterns
    ]
    print()
    print(
        format_table(
            ["pattern", "sup", "rec", "periodic duration"],
            rows,
            title="Event hashtag groups (cf. paper Table 6)",
        )
    )

    # Figure 8 analogue: daily frequencies of one rare tag vs a hot one.
    print()
    series = item_frequency_series(
        database, ["uttarakhand", "h0"], bucket=MINUTES_PER_DAY
    )
    window = range(45, 70)  # days around the flood burst
    print(
        format_series(
            "day",
            list(window),
            {
                "#uttarakhand": [
                    series["uttarakhand"].get(day * MINUTES_PER_DAY, 0)
                    for day in window
                ],
                "#h0 (background)": [
                    series["h0"].get(day * MINUTES_PER_DAY, 0)
                    for day in window
                ],
            },
            title="Daily tweet counts (cf. paper Figure 8)",
        )
    )
    print(
        "\n#uttarakhand is rare globally yet strongly periodic inside its "
        "burst window;\nrecurring-pattern mining finds it without flooding "
        "the output with low-support noise\n(the 'rare item problem' "
        "tolerance of Section 5.2)."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Co-rising stocks during rallies (the paper's stock-market motivation).

Run with::

    python examples/stock_rallies.py

"In the stock market, the set of high stocks indices that rise
periodically for a particular time interval may be of special interest
to companies and individuals." (Section 1.)

The script simulates two years of daily prices — a market of random
walkers plus one sector that rallies together during two bull windows —
symbolises each day into `<TICKER>+` events for stocks that rose more
than a threshold, and mines recurring patterns.  The sector's tickers
come out as one pattern whose interesting periodic-intervals are the
two rally windows; the analysis helpers then group discovered patterns
by co-seasonality, recovering the sector without price correlation ever
being computed.
"""

import numpy as np

from repro import EventSequence, mine_recurring_patterns
from repro.analysis import co_seasonal_groups, seasonality_score
from repro.bench.reporting import format_table
from repro.timeseries.database import TransactionalDatabase

DAYS = 500
SECTOR = ("CHIPX", "FABCO", "WAFR")  # the rallying semiconductor trio
OTHERS = tuple(f"STK{i}" for i in range(12))
RALLIES = ((60, 130), (320, 400))  # day windows of the sector bull runs
RISE_THRESHOLD = 0.004  # a day counts as "up" above +0.4%


def simulate_returns(seed: int = 8):
    """Daily log-returns: idiosyncratic noise + sector rally drift."""
    rng = np.random.default_rng(seed)
    tickers = SECTOR + OTHERS
    returns = {
        ticker: rng.normal(0.0, 0.01, size=DAYS) for ticker in tickers
    }
    for first, last in RALLIES:
        sector_drift = rng.normal(0.011, 0.004, size=last - first)
        for ticker in SECTOR:
            returns[ticker][first:last] += sector_drift
    return returns


def main() -> None:
    returns = simulate_returns()

    # Symbolise: one event per (stock, day) with an above-threshold rise.
    events = EventSequence(
        (f"{ticker}+", day)
        for ticker, series in returns.items()
        for day, value in enumerate(series)
        if value > RISE_THRESHOLD
    )
    database = TransactionalDatabase.from_events(events)
    print(
        f"symbolised {DAYS} trading days -> {len(database)} transactions, "
        f"{len(database.items())} rise-events"
    )

    found = mine_recurring_patterns(
        database, per=4, min_ps=12, min_rec=2, engine="rp-eclat-vec"
    )
    multi = [p for p in found if p.length >= 2]
    rows = [
        (
            " ".join(map(str, p.sorted_items())),
            p.support,
            p.recurrence,
            "; ".join(
                f"days {iv.start:g}-{iv.end:g}" for iv in p.intervals
            ),
            f"{seasonality_score(p, database):.2f}",
        )
        for p in multi
    ]
    print()
    print(
        format_table(
            ["co-rising stocks", "sup", "rec", "rally windows", "seasonality"],
            rows,
            title="Recurring co-rise patterns (per=4d, minPS=12, minRec=2)",
        )
    )

    groups = co_seasonal_groups(multi, min_overlap=0.3)
    print("\nco-seasonal groups (who rallies together):")
    for group in groups:
        names = sorted(
            {str(item) for pattern in group for item in pattern.items}
        )
        print(f"  {names}")

    top = max(multi, key=lambda p: p.length, default=None)
    expected = {f"{ticker}+" for ticker in SECTOR}
    if top is None or set(map(str, top.items)) != expected:
        raise SystemExit("expected the full sector trio to be recovered!")
    print(
        f"\nthe {len(SECTOR)}-stock sector was recovered as one pattern, "
        "with its two rally windows as the interesting periodic-intervals."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Seasonal purchases in a retail clickstream (the paper's Shop-14 use case).

Run with::

    python examples/retail_seasonality.py

Generates a Shop-14-style minute-granularity clickstream with two
seasonal promotion campaigns (think jackets-and-gloves: active in two
winter windows, silent otherwise), then shows the paper's central
contrast:

* **recurring-pattern mining** finds the seasonal category pairs *and*
  reports exactly when each season ran;
* **periodic-frequent mining** (complete cyclic repetition over the
  whole database) cannot find them at any sensible threshold, because
  the pairs vanish between seasons.
"""

from repro import mine_recurring_patterns
from repro.baselines import mine_periodic_frequent_patterns
from repro.bench.reporting import format_table
from repro.datasets import ClickstreamConfig, generate_clickstream
from repro.datasets.clickstream import MINUTES_PER_DAY

SEASONAL = (
    # category 120+121 run in two "winter" windows; 125+126 in two others.
    (120, ((3, 9), (24, 30))),
    (125, ((6, 12), (30, 36))),
)


def day_of(ts: float) -> int:
    return int(ts) // MINUTES_PER_DAY


def main() -> None:
    config = ClickstreamConfig(days=41, promo_windows=SEASONAL, seed=7)
    database = generate_clickstream(config)
    print(
        f"clickstream: {len(database)} minute-transactions over "
        f"{config.days} days, {len(database.items())} categories"
    )

    # One day of tolerance between visits; a season must hold for at
    # least 60 periodic repetitions; and we ask for >= 2 seasons.
    found = mine_recurring_patterns(
        database,
        per=MINUTES_PER_DAY,
        min_ps=60,
        min_rec=2,
        engine="rp-eclat-vec",
    )
    seasonal_categories = {
        f"c{category + offset}" for category, _ in SEASONAL for offset in (0, 1)
    }
    seasonal = [
        p for p in found if set(map(str, p.items)) & seasonal_categories
    ]
    rows = [
        (
            " ".join(map(str, p.sorted_items())),
            p.support,
            p.recurrence,
            "; ".join(
                f"days {day_of(iv.start)}-{day_of(iv.end)}"
                for iv in p.intervals
            ),
        )
        for p in seasonal
    ]
    print()
    print(
        format_table(
            ["pattern", "sup", "rec", "seasons (discovered!)"],
            rows,
            title="Seasonal categories found as recurring patterns",
        )
    )

    # The regular-pattern baseline: a periodic-frequent pattern must
    # cycle through the ENTIRE 41 days.  The seasonal pairs are silent
    # for weeks, so they cannot qualify.
    pf = mine_periodic_frequent_patterns(
        database, min_sup=120, max_per=MINUTES_PER_DAY
    )
    pf_seasonal = [
        p for p in pf if set(map(str, p.items)) & seasonal_categories
    ]
    print()
    print(
        f"periodic-frequent baseline found {len(pf)} patterns, "
        f"of which {len(pf_seasonal)} involve the seasonal categories"
    )
    print(
        "=> the strict complete-cycling constraint misses seasonal "
        "associations; the recurring-pattern model captures them, with "
        "their seasons."
    )


if __name__ == "__main__":
    main()

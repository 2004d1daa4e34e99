#!/usr/bin/env python
"""A season-aware recommender from recurring association rules.

Run with::

    python examples/seasonal_recommender.py

The paper's last future-work item: use the recurring-pattern model to
improve an association-rule recommender.  The point is temporal
context: a classical recommender learns "jackets => gloves" as a global
rule and recommends gloves in July; a recurring rule knows *when* the
association actually fires.

The script mines recurring rules from a year-long synthetic purchase
stream with two winter seasons of jacket+glove buying, builds a
:class:`~repro.core.rules.SeasonalRecommender`, and queries it at a
winter and a summer date.
"""

import numpy as np

from repro import TransactionalDatabase, derive_rules, mine_recurring_patterns
from repro.core.rules import SeasonalRecommender

DAYS = 420  # ~14 months: two winters
WINTERS = ((0, 75), (330, 420))  # day ranges with cold weather


def synthesize_purchases(seed: int = 2) -> TransactionalDatabase:
    """Daily basket stream: staples all year, winter gear in winters."""
    rng = np.random.default_rng(seed)
    staples = ["bread", "milk", "coffee", "apples", "rice", "pasta"]
    rows = []
    for day in range(DAYS):
        basket = set(
            rng.choice(staples, size=rng.integers(2, 5), replace=False)
        )
        in_winter = any(first <= day < last for first, last in WINTERS)
        if in_winter and rng.random() < 0.7:
            basket.add("jacket")
            if rng.random() < 0.85:
                basket.add("gloves")
        if rng.random() < 0.1:  # off-season returns/gifts: rare noise
            basket.add("jacket")
        rows.append((day, basket))
    return TransactionalDatabase(rows)


def main() -> None:
    database = synthesize_purchases()
    print(
        f"purchase stream: {len(database)} daily baskets, "
        f"{len(database.items())} products"
    )

    found = mine_recurring_patterns(
        database, per=3, min_ps=15, min_rec=2, engine="rp-eclat-vec"
    )
    rules = derive_rules(found, database, min_confidence=0.6)
    seasonal_rules = [r for r in rules if "jacket" in r.antecedent]
    print(f"\n{len(rules)} recurring rules; jacket rules:")
    for rule in seasonal_rules:
        print(f"  {rule}")

    recommender = SeasonalRecommender(rules, slack=7)

    winter_day, summer_day = 40, 200
    for day, label in ((winter_day, "winter"), (summer_day, "summer")):
        picks = recommender.recommend(basket=["jacket", "bread"], ts=day)
        print(f"\ncustomer buys a jacket on day {day} ({label}):")
        print(f"  recommend: {picks if picks else 'nothing seasonal'}")

    # The contrast: ignoring seasons recommends gloves out of season.
    blind = recommender.recommend(
        basket=["jacket", "bread"], ts=summer_day, in_season_only=False
    )
    print(
        f"\na season-blind recommender would have suggested {blind} "
        f"on day {summer_day} — the association is real but dormant."
    )


if __name__ == "__main__":
    main()

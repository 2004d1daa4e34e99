"""The three evaluation workloads at configurable scale.

The paper's databases (Section 5.1):

=============  ===============  ======  =====================
database       transactions     items   nature
=============  ===============  ======  =====================
T10I4D100K     100 000          941     Quest synthetic
Shop-14        59 240 (41 d)    138     minute clickstream
Twitter        177 120 (123 d)  1 000   minute hashtag stream
=============  ===============  ======  =====================

``scale`` linearly shrinks the time dimension (transactions or days);
``scale=1.0`` is paper scale.  The benchmark defaults use a reduced
scale so a pure-Python sweep finishes in seconds; EXPERIMENTS.md records
which scale each recorded run used.  Databases are cached per
configuration, so a parameter sweep pays generation cost once.  Each
factory imports its generator (and with it NumPy) on its first call,
so naming the workloads, as the CLI's ``--dataset`` choices do, costs
nothing.
"""

from __future__ import annotations

from functools import lru_cache

from repro._validation import check_positive
from repro.timeseries.database import TransactionalDatabase

__all__ = [
    "WORKLOADS",
    "quest_workload",
    "clickstream_workload",
    "twitter_workload",
]

#: Default scale for benchmarks: ~10% of the paper's sizes.
DEFAULT_SCALE = 0.1

PAPER_QUEST_TRANSACTIONS = 100_000
PAPER_SHOP14_DAYS = 41
PAPER_TWITTER_DAYS = 123


@lru_cache(maxsize=8)
def quest_workload(
    scale: float = DEFAULT_SCALE, seed: int = 0
) -> TransactionalDatabase:
    """The T10I4D100K stand-in at the given scale."""
    from repro.datasets.quest import QuestConfig, generate_quest

    check_positive(scale, "scale")
    return generate_quest(
        QuestConfig(
            n_transactions=max(100, round(PAPER_QUEST_TRANSACTIONS * scale)),
            seed=seed,
        )
    )


@lru_cache(maxsize=8)
def clickstream_workload(
    scale: float = DEFAULT_SCALE, seed: int = 0
) -> TransactionalDatabase:
    """The Shop-14 stand-in at the given scale.

    Promotion windows are positioned proportionally by the generator
    config; at very small scales (< ~0.2) the built-in windows are
    clipped, so the config swaps in two short early windows to keep the
    seasonal structure present.
    """
    from repro.datasets.clickstream import (
        ClickstreamConfig,
        generate_clickstream,
    )

    check_positive(scale, "scale")
    days = max(2, round(PAPER_SHOP14_DAYS * scale))
    if days >= 37:
        config = ClickstreamConfig(days=days, seed=seed)
    else:
        third = max(1, days // 3)
        second_start = min(days - 1, 2 * third)
        windows = ((0, third - 1), (second_start, days - 1))
        config = ClickstreamConfig(
            days=days,
            promo_windows=((120, windows), (125, windows)),
            seed=seed,
        )
    return generate_clickstream(config)


@lru_cache(maxsize=8)
def twitter_workload(
    scale: float = DEFAULT_SCALE, seed: int = 0
) -> TransactionalDatabase:
    """The Twitter stand-in at the given scale.

    Below paper scale the default burst windows are re-anchored
    proportionally so every Table 6 burst survives truncation.
    """
    from repro.datasets.twitter import TwitterConfig, generate_twitter

    check_positive(scale, "scale")
    days = max(4, round(PAPER_TWITTER_DAYS * scale))
    if days >= 75:
        config = TwitterConfig(days=days, seed=seed)
    else:
        factor = days / PAPER_TWITTER_DAYS
        bursts = tuple(
            type(burst)(
                tags=burst.tags,
                windows=tuple(
                    (
                        min(days - 2, max(0, round(first * factor))),
                        min(
                            days - 1,
                            max(0, round(first * factor))
                            + max(1, round((last - first) * factor)),
                        ),
                    )
                    for first, last in burst.windows
                ),
                mean_gap=burst.mean_gap,
            )
            for burst in TwitterConfig.bursts
        )
        config = TwitterConfig(
            days=days,
            bursts=bursts,
            # Trending episodes shrink with the stream so a scaled run
            # keeps the paper-scale recurrence structure.
            mean_episode_days=max(2.0, TwitterConfig.mean_episode_days * factor),
            mean_episodes_per_tag=TwitterConfig.mean_episodes_per_tag,
            seed=seed,
        )
    return generate_twitter(config)


#: Name -> factory registry: the CLI's --dataset choices and the
#: resolution table for ``DatasetRef(kind="workload")`` requests.
WORKLOADS = {
    "quest": quest_workload,
    "clickstream": clickstream_workload,
    "twitter": twitter_workload,
}

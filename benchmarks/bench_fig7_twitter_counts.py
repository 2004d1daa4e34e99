"""Figure 7: Twitter recurring-pattern counts vs minPS.

One panel per minRec in {1, 2, 3}; within a panel, one series per
per in {360, 720, 1440}, minPS swept from 2% to 10%.  The paper's
curves fall steeply with minPS and sit higher for larger per; we assert
both shape properties on the stand-in.
"""

from repro.bench.harness import grid_figure
from repro.sweep import SweepPlan, run_sweep

PERS = (360, 720, 1440)
MIN_PS_SWEEP = (0.02, 0.04, 0.06, 0.08, 0.10)
MIN_RECS = (1, 2, 3)


def _sweep(db):
    return run_sweep(
        db,
        SweepPlan(
            pers=PERS, min_ps_values=MIN_PS_SWEEP, min_recs=MIN_RECS,
            engine="rp-growth",
        ),
        dataset="twitter",
    )


def test_fig7(twitter_db, benchmark, record_artifact):
    result = benchmark.pedantic(
        _sweep, args=(twitter_db,), rounds=1, iterations=1
    )
    panels = "\n\n".join(
        grid_figure(result, min_rec) for min_rec in MIN_RECS
    )
    record_artifact("fig7_twitter_counts", panels)

    value = result.counts()
    for min_rec in MIN_RECS:
        for per in PERS:
            counts = [value[(per, ps, min_rec)] for ps in MIN_PS_SWEEP]
            # Falling in minPS.
            assert counts == sorted(counts, reverse=True), (min_rec, per)
        # Larger per dominates at minRec=1 (Section 5.2 observation).
        if min_rec == 1:
            for ps in MIN_PS_SWEEP:
                series = [value[(per, ps, 1)] for per in PERS]
                assert series == sorted(series), ps

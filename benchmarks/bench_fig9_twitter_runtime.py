"""Figure 9: RP-growth runtime on Twitter vs minPS.

One panel per minRec, one series per per, minPS swept 2%-10%; the
paper's curves fall with minPS and rise with per.  Single-run wall
clocks are noisy, so the shape assertions compare the endpoints with a
generous tolerance rather than demanding strict monotonicity.
"""

from repro.bench.harness import grid_figure
from repro.sweep import SweepPlan, run_sweep

PERS = (360, 720, 1440)
MIN_PS_SWEEP = (0.02, 0.04, 0.06, 0.08, 0.10)
MIN_RECS = (1, 2, 3)


def _sweep(db):
    # Every cell is mined (no min_rec derivation), best of two runs.
    return run_sweep(
        db,
        SweepPlan(
            pers=PERS, min_ps_values=MIN_PS_SWEEP, min_recs=MIN_RECS,
            derive_min_rec=False, repeats=2,
        ),
        dataset="twitter",
    )


def test_fig9(twitter_db, benchmark, record_artifact):
    result = benchmark.pedantic(
        _sweep, args=(twitter_db,), rounds=1, iterations=1
    )
    panels = "\n\n".join(
        grid_figure(result, min_rec, "seconds") for min_rec in MIN_RECS
    )
    record_artifact("fig9_twitter_runtime", panels)

    seconds = result.seconds_by_cell
    for min_rec in MIN_RECS:
        for per in PERS:
            loose = seconds[(per, MIN_PS_SWEEP[0], min_rec)]
            tight = seconds[(per, MIN_PS_SWEEP[-1], min_rec)]
            # Mining at 10% minPS must not be slower than at 2% beyond
            # timing noise.
            assert tight <= loose * 1.5, (min_rec, per, tight, loose)

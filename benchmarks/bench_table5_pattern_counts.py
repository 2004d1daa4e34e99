"""Table 5: number of recurring patterns across the parameter grid.

Paper setting (Table 4): per in {360, 720, 1440}; minRec in {1, 2, 3};
minPS in {0.1%, 0.2%, 0.3%} for T10I4D100K and Shop-14, {2%, 5%, 10%}
for Twitter.  We run the identical grid on the scaled stand-ins and
check the qualitative observations of Section 5.2:

* at fixed per and minRec, raising minPS lowers the count;
* at fixed per and minPS, raising minRec lowers the count;
* at minRec = 1, raising per raises the count.
"""

import pytest

from repro.bench.harness import grid_table
from repro.sweep import SweepPlan, run_sweep

PERS = (360, 720, 1440)
MIN_RECS = (1, 2, 3)

GRIDS = {
    "quest": (0.001, 0.002, 0.003),
    "shop14": (0.001, 0.002, 0.003),
    "twitter": (0.02, 0.05, 0.10),
}


def _sweep(db, name):
    return run_sweep(
        db,
        SweepPlan(pers=PERS, min_ps_values=GRIDS[name], min_recs=MIN_RECS),
        dataset=name,
    )


def _check_trends(result):
    plan, value = result.plan, result.counts()
    pers, ps_values, recs = plan.pers, plan.min_ps_values, plan.min_recs
    # Counts decrease (weakly) in minPS.
    for per in pers:
        for rec in recs:
            counts = [value[(per, ps, rec)] for ps in ps_values]
            assert counts == sorted(counts, reverse=True), (per, rec, counts)
    # Counts decrease (weakly) in minRec.
    for per in pers:
        for ps in ps_values:
            counts = [value[(per, ps, rec)] for rec in recs]
            assert counts == sorted(counts, reverse=True), (per, ps, counts)
    # At minRec=1, counts increase (weakly) in per.
    for ps in ps_values:
        counts = [value[(per, ps, 1)] for per in pers]
        assert counts == sorted(counts), (ps, counts)


@pytest.mark.parametrize("dataset", ["quest", "shop14", "twitter"])
def test_table5(dataset, benchmark, record_artifact, request):
    db = request.getfixturevalue(f"{dataset}_db")
    result = benchmark.pedantic(
        _sweep, args=(db, dataset), rounds=1, iterations=1
    )
    record_artifact(f"table5_{dataset}", grid_table(result))
    _check_trends(result)
    # The grid must not be degenerate: the loosest cell finds patterns.
    loosest = len(result.pattern_set(PERS[-1], GRIDS[dataset][0], 1))
    assert loosest > 0

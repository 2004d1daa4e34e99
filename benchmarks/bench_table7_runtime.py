"""Table 7: RP-growth runtime over the parameter grid.

pytest-benchmark measures representative cells directly (one benchmark
per (dataset, per, minPS, minRec) sample of the grid); a full grid is
additionally recorded as text via the harness, mirroring Table 7's
layout.  The paper's runtime trends — slower for larger per, faster for
larger minPS and minRec — are asserted on the recorded grid.
"""

import pytest

from repro.bench.harness import grid_table
from repro.core.miner import mine_recurring_patterns
from repro.sweep import SweepPlan, run_sweep

GRID_PERS = (360, 720, 1440)
GRID_RECS = (1, 2, 3)
GRIDS = {
    "quest": (0.001, 0.002, 0.003),
    "shop14": (0.001, 0.002, 0.003),
    "twitter": (0.02, 0.05, 0.10),
}

# Representative cells timed precisely by pytest-benchmark.
CELLS = [
    ("quest", 360, 0.002, 1),
    ("quest", 1440, 0.002, 1),
    ("shop14", 360, 0.002, 1),
    ("shop14", 1440, 0.002, 3),
    ("twitter", 360, 0.02, 1),
    ("twitter", 1440, 0.02, 1),
    ("twitter", 1440, 0.10, 3),
]


@pytest.mark.parametrize(
    "dataset,per,min_ps,min_rec",
    CELLS,
    ids=[f"{d}-per{p}-ps{ps}-rec{r}" for d, p, ps, r in CELLS],
)
def test_runtime_cell(dataset, per, min_ps, min_rec, benchmark, request):
    db = request.getfixturevalue(f"{dataset}_db")
    found = benchmark(
        mine_recurring_patterns, db, per, min_ps, min_rec
    )
    assert found is not None


@pytest.mark.parametrize("dataset", ["quest", "shop14", "twitter"])
def test_table7_grid(dataset, benchmark, record_artifact, request):
    db = request.getfixturevalue(f"{dataset}_db")
    # Every cell is mined (no min_rec derivation), so each is timed.
    plan = SweepPlan(
        pers=GRID_PERS, min_ps_values=GRIDS[dataset], min_recs=GRID_RECS,
        derive_min_rec=False,
    )
    result = benchmark.pedantic(
        run_sweep,
        args=(db, plan),
        kwargs={"dataset": dataset},
        rounds=1,
        iterations=1,
    )
    record_artifact(f"table7_{dataset}_runtime", grid_table(result, "seconds"))
    # Directional check (loose, single-run timings are noisy): the
    # loosest cell must not be faster than the tightest by more than
    # noise — i.e. the tightest cell should win or roughly tie.
    seconds = result.seconds_by_cell
    loosest = seconds[(GRID_PERS[-1], GRIDS[dataset][0], 1)]
    tightest = seconds[(GRID_PERS[0], GRIDS[dataset][-1], GRID_RECS[-1])]
    assert tightest <= loosest * 1.5, (tightest, loosest)

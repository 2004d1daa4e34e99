"""Ablation E-A1: the Erec pruning bound vs the naive support bound.

Section 4.1 motivates Erec as the device that restores (candidate)
anti-monotonicity.  This bench runs the vertical engine
(``RPEclatVec``) twice on the same workload — once with the paper's Erec bound, once with the best
bound available without it (support >= minPS * minRec) — and measures
both the wall clock and the number of lattice nodes expanded.  The two
runs must return identical pattern sets; Erec must never expand more.
"""

import pytest

from repro.core.rp_eclat_vec import RPEclatVec

SETTINGS = [
    ("quest", 360, 0.002, 2),
    ("shop14", 1440, 0.002, 2),
    ("twitter", 360, 0.02, 2),
]


@pytest.mark.parametrize(
    "dataset,per,min_ps,min_rec",
    SETTINGS,
    ids=[s[0] for s in SETTINGS],
)
@pytest.mark.parametrize("pruning", ["erec", "support"])
def test_pruning_runtime(
    dataset, per, min_ps, min_rec, pruning, benchmark, request
):
    db = request.getfixturevalue(f"{dataset}_db")
    miner = RPEclatVec(per, min_ps, min_rec, pruning=pruning)
    benchmark(miner.mine, db)


@pytest.mark.parametrize(
    "dataset,per,min_ps,min_rec",
    SETTINGS,
    ids=[s[0] for s in SETTINGS],
)
def test_pruning_effectiveness(
    dataset, per, min_ps, min_rec, benchmark, record_artifact, request
):
    db = request.getfixturevalue(f"{dataset}_db")

    def run():
        strong = RPEclatVec(per, min_ps, min_rec, pruning="erec")
        strong_result = strong.mine(db)
        weak = RPEclatVec(per, min_ps, min_rec, pruning="support")
        weak_result = weak.mine(db)
        return strong, strong_result, weak, weak_result

    strong, strong_result, weak, weak_result = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert strong_result == weak_result
    expanded_strong = strong.last_stats.candidate_patterns
    expanded_weak = weak.last_stats.candidate_patterns
    assert expanded_strong <= expanded_weak
    record_artifact(
        f"ablation_pruning_{dataset}",
        (
            f"{dataset} per={per} minPS={min_ps} minRec={min_rec}\n"
            f"patterns found:        {len(strong_result)}\n"
            f"expanded with Erec:    {expanded_strong}\n"
            f"expanded with support: {expanded_weak}\n"
            f"expansion saved:       "
            f"{100 * (1 - expanded_strong / max(1, expanded_weak)):.1f}%"
        ),
    )

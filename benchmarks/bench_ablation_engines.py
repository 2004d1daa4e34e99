"""Ablation E-A2: RP-growth (tree) vs the vertical engine.

The paper argues the ts-list tail-node tree is an efficient substrate
(Section 4.2).  This bench times the tree engine against the batched
columnar vertical engine (``rp-eclat-vec``) on the same workloads and
verifies they return identical results — the vertical engine is the
library's independent implementation of the same model.  Every engine
is built through the registry, exactly as the façade builds it.
"""

import pytest

from repro.core.engines import get_engine

SETTINGS = [
    ("quest", 360, 0.002, 1),
    ("shop14", 1440, 0.002, 2),
    ("twitter", 360, 0.02, 1),
]

ENGINES = ("rp-eclat-vec", "rp-growth")


@pytest.mark.parametrize(
    "dataset,per,min_ps,min_rec",
    SETTINGS,
    ids=[s[0] for s in SETTINGS],
)
@pytest.mark.parametrize("engine", ENGINES)
def test_engine_runtime(
    dataset, per, min_ps, min_rec, engine, benchmark, request
):
    db = request.getfixturevalue(f"{dataset}_db")
    miner = get_engine(engine).factory(per, min_ps, min_rec)
    benchmark(miner.mine, db)


@pytest.mark.parametrize(
    "dataset,per,min_ps,min_rec",
    SETTINGS,
    ids=[s[0] for s in SETTINGS],
)
def test_engines_agree(dataset, per, min_ps, min_rec, benchmark, request):
    db = request.getfixturevalue(f"{dataset}_db")

    def run():
        return [
            get_engine(engine).factory(per, min_ps, min_rec).mine(db)
            for engine in ENGINES
        ]

    vec, growth = benchmark.pedantic(run, rounds=1, iterations=1)
    assert growth == vec

"""Randomized cross-engine differential testing.

The naive exhaustive miner is the oracle (it evaluates Definition 9
directly, itemset by itemset, with no pruning to get wrong); every
pruning engine — and the parallel layer — must agree with it on any
database.  This suite drives ~50 seeded random databases through all
of them per run: the shared generator in :mod:`repro.qa.differential`
varies the item alphabet, density, gap distribution (dense with
duplicate timestamps, uniform, bursty), and sprinkles empty itemsets,
so the cases cover the merge/prune edge paths that hand-written
fixtures miss.

The generation, comparison and minimization machinery lives in
``repro.qa.differential`` (promoted from this file so the metamorphic
checker and the ``repro qa`` gate reuse it); this test is now just the
pytest driver.  On disagreement it prints the seed, a greedily
minimized reproducer (rows + parameters) and both pattern sets, so a
failure is a one-paste bug report rather than a flake.
"""

import random

import pytest

from repro.core.engines import engine_names
from repro.qa.differential import (
    BASE_SEED,
    check_case,
    random_params,
    random_rows,
)
from repro.timeseries.database import TransactionalDatabase

pytestmark = pytest.mark.slow

#: Differential cases per run; each case checks the oracle against
#: every pruning engine (serial), and every 7th case additionally
#: re-checks the engines under jobs=2.
N_CASES = 50


@pytest.mark.parametrize("case", range(N_CASES))
def test_engines_agree_with_naive_oracle(case):
    seed = BASE_SEED + case
    rng = random.Random(seed)
    rows = random_rows(rng)
    params = random_params(rng)
    if len(TransactionalDatabase(rows)) == 0:
        pytest.skip("drew an empty database")
    jobs_values = (1, 2) if case % 7 == 0 else (1,)
    engines = engine_names(supports_jobs=True)
    checks, failures = check_case(
        seed, rows, params, engines=engines, jobs_values=jobs_values,
    )
    assert checks >= len(engines)
    if failures:
        pytest.fail("\n\n".join(f.describe() for f in failures))

"""Parallel/serial equivalence: the contract of ``jobs=N``.

For every parallel-capable engine, ``jobs=1`` and ``jobs=4`` must
produce *identical* :class:`RecurringPatternSet`\\ s — same itemsets,
supports, recurrences and interval boundaries — and the merged
per-worker counters must equal the serial run's counters exactly,
because the prefix partition is a partition of the serial work, not an
approximation of it.

Datasets: the paper's running example (known output, Table 2), a
planted workload (known ground truth) and noise-corrupted variants
(dropout and jitter — irregular ts-lists exercise the merge paths).
"""

import pytest

from repro.core.engines import engine_names
from repro.core.miner import mine_recurring_patterns
from repro.core.options import ObservabilityOptions
from repro.datasets import paper_running_example
from repro.datasets.noise import apply_dropout, apply_jitter
from repro.datasets.planted import generate_planted_workload

JOBS = 4


def _datasets():
    """(name, database, mining params) triples for the matrix."""
    planted = generate_planted_workload(
        per=5, min_ps=4, min_rec=2, n_patterns=3, noise_items=8, seed=7
    )
    params = {"per": planted.per, "min_ps": planted.min_ps, "min_rec": 1}
    return [
        ("paper", paper_running_example(), {"per": 2, "min_ps": 3, "min_rec": 2}),
        ("planted", planted.database, params),
        ("dropout", apply_dropout(planted.database, 0.2, seed=1), params),
        ("jitter", apply_jitter(planted.database, 1.0, seed=1), params),
    ]


DATASETS = _datasets()


@pytest.mark.parametrize(
    "name,database,params", DATASETS, ids=[d[0] for d in DATASETS]
)
@pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
def test_parallel_equals_serial(engine, name, database, params):
    obs = ObservabilityOptions(collect_stats=True)
    serial, serial_telemetry = mine_recurring_patterns(
        database, engine=engine, observability=obs, **params
    )
    parallel, parallel_telemetry = mine_recurring_patterns(
        database, engine=engine, jobs=JOBS, observability=obs, **params
    )
    assert parallel == serial
    # Pattern sets compare metadata too, but be explicit about the
    # temporal description, the part a bad merge would corrupt first.
    for serial_pattern, parallel_pattern in zip(serial, parallel):
        assert serial_pattern.items == parallel_pattern.items
        assert serial_pattern.support == parallel_pattern.support
        assert serial_pattern.intervals == parallel_pattern.intervals
    assert (
        parallel_telemetry.stats.as_dict() == serial_telemetry.stats.as_dict()
    )


@pytest.mark.parametrize("engine", engine_names(supports_jobs=True))
def test_planted_ground_truth_survives_parallelism(engine):
    """jobs=4 still recovers every planted pattern exactly."""
    workload = generate_planted_workload(per=4, min_ps=3, min_rec=2, seed=3)
    found = mine_recurring_patterns(
        workload.database,
        per=workload.per,
        min_ps=workload.min_ps,
        min_rec=workload.min_rec,
        engine=engine,
        jobs=JOBS,
    )
    for expected in workload.expected:
        mined = found.get(expected.items)
        assert mined is not None, expected
        assert mined.intervals == expected.intervals


@pytest.mark.parametrize("jobs", [2, 3, 4, 7])
def test_every_worker_count_agrees(jobs):
    """The partition must not depend on the worker count."""
    database = paper_running_example()
    serial = mine_recurring_patterns(database, per=2, min_ps=3, min_rec=2)
    parallel = mine_recurring_patterns(
        database, per=2, min_ps=3, min_rec=2, jobs=jobs
    )
    assert parallel == serial

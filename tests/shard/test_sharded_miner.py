"""Sharded mining equals in-memory mining — API, façade and CLI."""

from __future__ import annotations

import json

import pytest

from repro.core.miner import mine_recurring_patterns
from repro.core.options import ObservabilityOptions
from repro.core.request import MiningRequest
from repro.exceptions import ParameterError
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import MiningMonitor
from repro.qa.relations import engine_matrix
from repro.shard import (
    DEFAULT_MAX_TRANSACTIONS,
    mine_sharded_file_request,
    mine_sharded_request,
)
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.io import save_transactional_database

SHARD_COUNTS = (1, 3, 8)


@pytest.mark.parametrize("engine,jobs", engine_matrix())
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_equals_in_memory_across_matrix(
    running_example, engine, jobs, shards
):
    expected = mine_recurring_patterns(
        running_example, 2, 3, 2, engine=engine, jobs=jobs
    )
    found, stats, faults, report = mine_sharded_request(
        running_example,
        MiningRequest(2, 3, 2, engine=engine, jobs=jobs, shards=shards),
    )
    assert found == expected
    assert faults == []
    assert report.shard_count == min(shards, len(running_example))
    assert stats.patterns_found == len(expected)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_equals_in_memory_on_planted(planted_workload, shards):
    w = planted_workload
    expected = mine_recurring_patterns(w.database, w.per, w.min_ps, w.min_rec)
    found, _, _, _ = mine_sharded_request(
        w.database, MiningRequest(w.per, w.min_ps, w.min_rec, shards=shards)
    )
    assert found == expected
    assert {p.sorted_items() for p in found} >= {
        p.sorted_items() for p in w.expected
    }


def test_fractional_min_ps_resolves_against_full_database(running_example):
    # 3/12 = 0.25 of the full database; a shard-local resolution would
    # move the bar on small shards and change the result.
    expected = mine_recurring_patterns(running_example, 2, 0.25, 2)
    assert expected == mine_recurring_patterns(running_example, 2, 3, 2)
    for shards in SHARD_COUNTS:
        found, _, _, _ = mine_sharded_request(
            running_example, MiningRequest(2, 0.25, 2, shards=shards)
        )
        assert found == expected


def test_exactly_one_plan_mode_required(running_example):
    with pytest.raises(ParameterError, match="no shard plan"):
        mine_sharded_request(running_example, MiningRequest(2, 3, 2))
    with pytest.raises(ParameterError, match="mutually exclusive"):
        MiningRequest(2, 3, 2, shards=2, max_events_in_memory=4)


def test_empty_database_mines_empty():
    found, stats, faults, report = mine_sharded_request(
        TransactionalDatabase([]), MiningRequest(2, 3, 1, shards=3)
    )
    assert len(found) == 0
    assert faults == []
    assert report.shard_count == 0


def test_file_path_rejects_open_handles(tmp_path, running_example):
    path = tmp_path / "db.tsv"
    save_transactional_database(running_example, path)
    with open(path, encoding="utf-8") as handle:
        with pytest.raises(ParameterError):
            mine_sharded_file_request(
                handle, MiningRequest(2, 3, 2, max_events_in_memory=4)
            )


def test_file_mining_refuses_a_shard_count(tmp_path):
    """Regression: a file-sharded request with ``shards=3`` used to
    ignore it and mine the running example as one 12-transaction
    shard.  A file is cut by a per-shard bound, so the request is
    refused, naming that bound, before the file is opened (the path
    does not exist, so opening it would raise FileNotFoundError)."""
    with pytest.raises(ParameterError, match="max_events_in_memory"):
        mine_sharded_file_request(
            tmp_path / "missing.tsv",
            MiningRequest(per=2, min_ps=3, min_rec=2, shards=3),
        )


def test_file_mining_refuses_a_zero_bound_before_reading():
    """Regression: a zero per-shard bound used to read the whole file
    and then divide by zero.  The request refuses it up front."""
    with pytest.raises(ParameterError, match="max_events_in_memory"):
        MiningRequest(2, 3, 2, max_events_in_memory=0)


def test_file_mining_matches_database_mining(tmp_path, planted_workload):
    w = planted_workload
    path = tmp_path / "w.tsv"
    save_transactional_database(w.database, path)
    expected = mine_recurring_patterns(w.database, w.per, w.min_ps, w.min_rec)
    for max_transactions in (7, 23, None):
        found, _, _, report = mine_sharded_file_request(
            path,
            MiningRequest(
                w.per, w.min_ps, w.min_rec,
                max_events_in_memory=max_transactions,
            ),
        )
        assert found == expected
        bound = max_transactions or DEFAULT_MAX_TRANSACTIONS
        assert report.shard_count == -(-len(w.database) // bound)


# ----------------------------------------------------------------------
# Façade wiring
# ----------------------------------------------------------------------
def test_facade_shards_kwarg(running_example):
    base = mine_recurring_patterns(running_example, 2, 3, 2)
    assert mine_recurring_patterns(running_example, 2, 3, 2, shards=3) == base
    assert (
        mine_recurring_patterns(
            running_example, 2, 3, 2, max_events_in_memory=4
        )
        == base
    )


def test_facade_rejects_both_shard_modes(running_example):
    with pytest.raises(ParameterError):
        mine_recurring_patterns(
            running_example, 2, 3, 2, shards=2, max_events_in_memory=4
        )


def test_facade_telemetry_carries_shard_report(running_example):
    found, telemetry = mine_recurring_patterns(
        running_example, 2, 3, 2, shards=3,
        observability=ObservabilityOptions(collect_stats=True),
    )
    assert found == mine_recurring_patterns(running_example, 2, 3, 2)
    info = telemetry.extra["shards"]
    assert info["shard_count"] == 3
    assert info["sizes"] == [4, 4, 4]
    assert len(info["cuts"]) == 2
    assert info["patterns_considered"] >= len(found)


def test_unsharded_telemetry_has_no_shard_extra(running_example):
    _, telemetry = mine_recurring_patterns(
        running_example, 2, 3, 2,
        observability=ObservabilityOptions(collect_stats=True),
    )
    assert "shards" not in telemetry.extra


def test_shard_metrics_counters(running_example):
    registry = MetricsRegistry()
    monitor = MiningMonitor(registry=registry)
    found, _, _, report = mine_sharded_request(
        running_example, MiningRequest(2, 3, 2, shards=3), monitor=monitor
    )

    def counter(name):
        return sum(
            entry["value"]
            for entry in registry.snapshot()["counters"]
            if entry["name"] == name
        )

    assert counter("repro_shard_runs_total") == 1
    assert counter("repro_shard_mined_total") == 3
    assert counter("repro_shard_transactions_total") == len(running_example)
    # Local and boundary candidates may overlap, so the published count
    # is the union size; it covers at least the final pattern count.
    assert counter("repro_shard_candidates_total") >= len(found)
    assert counter("repro_shard_stitched_runs_total") == (
        report.merge.stitched_runs
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _write(tmp_path, database):
    path = tmp_path / "db.tsv"
    save_transactional_database(database, path)
    return str(path)


def test_cli_shard_subcommand(tmp_path, capsys, running_example):
    from repro.cli import main

    path = _write(tmp_path, running_example)
    assert main([
        "shard", "--input", path, "--per", "2", "--min-ps", "3",
        "--min-rec", "2", "--max-events", "5", "--no-progress",
    ]) == 0
    out = capsys.readouterr().out
    assert "8 recurring patterns" in out
    assert "out-of-core" in out
    assert "shards: 3" in out


def test_cli_mine_shards_flag_matches_plain_mine(
    tmp_path, capsys, running_example
):
    from repro.cli import main

    path = _write(tmp_path, running_example)
    assert main([
        "mine", "--input", path, "--per", "2", "--min-ps", "3",
        "--min-rec", "2", "--no-progress",
    ]) == 0
    plain = capsys.readouterr().out
    assert main([
        "mine", "--input", path, "--per", "2", "--min-ps", "3",
        "--min-rec", "2", "--shards", "4", "--no-progress",
    ]) == 0
    sharded = capsys.readouterr().out
    assert sharded == plain


def test_cli_shard_writes_metrics(tmp_path, capsys, running_example):
    from repro.cli import main

    path = _write(tmp_path, running_example)
    metrics_path = tmp_path / "metrics.jsonl"
    assert main([
        "shard", "--input", path, "--per", "2", "--min-ps", "3",
        "--min-rec", "2", "--max-events", "4", "--no-progress",
        "--metrics-out", str(metrics_path),
    ]) == 0
    capsys.readouterr()
    lines = [
        json.loads(line)
        for line in metrics_path.read_text().splitlines()
        if line.strip()
    ]
    assert lines
    names = {
        counter["name"]
        for snapshot in lines
        for counter in snapshot.get("counters", [])
    }
    assert "repro_shard_mined_total" in names

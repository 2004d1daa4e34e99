"""Unit tests for telemetry packaging, trace files and validation."""

import io
import json
import logging

import pytest

from repro.core.options import ObservabilityOptions
from repro.obs.counters import MiningStats
from repro.obs.progress import MiningMonitor
from repro.obs.report import (
    RUN_SCHEMA,
    MiningTelemetry,
    TraceWriter,
    check_fields,
    profile_call,
    read_trace,
    validate_run_record,
)
from repro.obs.spans import SpanCollector, span


def _sample_telemetry() -> MiningTelemetry:
    collector = SpanCollector()
    with collector:
        with span("first_scan"):
            pass
        with span("mine"):
            with span("conditional"):
                pass
    return MiningTelemetry(
        engine="rp-growth",
        params={"per": 2, "min_ps": 3, "min_rec": 2},
        stats=MiningStats(patterns_found=8, erec_evaluations=24),
        spans=collector.spans,
        patterns_found=8,
        seconds=0.25,
    )


class TestRunRecord:
    def test_record_validates(self):
        record = _sample_telemetry().as_run_record()
        validate_run_record(record)  # must not raise
        assert record["schema"] == RUN_SCHEMA
        assert record["counters"]["patterns_found"] == 8

    def test_record_is_json_serialisable(self):
        text = json.dumps(_sample_telemetry().as_run_record())
        validate_run_record(json.loads(text))

    @pytest.mark.parametrize("missing", [
        "engine", "params", "patterns_found", "seconds", "counters", "spans",
    ])
    def test_missing_key_rejected(self, missing):
        record = _sample_telemetry().as_run_record()
        del record[missing]
        with pytest.raises(ValueError, match=missing):
            validate_run_record(record)

    def test_wrong_schema_rejected(self):
        record = _sample_telemetry().as_run_record()
        record["schema"] = "bogus/v0"
        with pytest.raises(ValueError, match="schema"):
            validate_run_record(record)

    def test_missing_counter_rejected(self):
        record = _sample_telemetry().as_run_record()
        del record["counters"]["erec_evaluations"]
        with pytest.raises(ValueError, match="erec_evaluations"):
            validate_run_record(record)

    def test_bool_patterns_found_rejected(self):
        record = _sample_telemetry().as_run_record()
        record["patterns_found"] = True
        with pytest.raises(ValueError, match="'patterns_found' must be int"):
            validate_run_record(record)

    def test_int_seconds_accepted_bool_seconds_rejected(self):
        record = _sample_telemetry().as_run_record()
        record["seconds"] = 1
        validate_run_record(record)
        record["seconds"] = False
        with pytest.raises(ValueError, match="'seconds' must be float"):
            validate_run_record(record)

    def test_phase_seconds_aggregates_by_name(self):
        telemetry = _sample_telemetry()
        phases = telemetry.phase_seconds()
        assert set(phases) == {"first_scan", "mine", "conditional"}


class TestTraceRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = _sample_telemetry()
        with TraceWriter(str(path)) as writer:
            writer.write_run(telemetry)
        (record,) = read_trace(str(path))  # the run record, nothing else
        validate_run_record(record)
        assert record["patterns_found"] == 8
        mine = record["spans"][1]
        assert [child["name"] for child in mine["children"]] == [
            "conditional"
        ]

    def test_writer_accepts_open_handle(self):
        handle = io.StringIO()
        with TraceWriter(handle) as writer:
            writer.write_record({"kind": "note"})
        assert json.loads(handle.getvalue()) == {"kind": "note"}

    def test_every_line_is_complete_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(str(path)) as writer:
            writer.write_run(_sample_telemetry())
        for line in path.read_text().splitlines():
            json.loads(line)  # must not raise


class TestSummaryAndLogging:
    def test_summary_table_mentions_phases_and_counters(self):
        table = _sample_telemetry().summary_table()
        assert "first_scan" in table
        assert "  conditional" in table  # indented child
        assert "patterns_found" in table
        assert "total" in table

    def test_log_sink_emits_run_and_phase_records(self, caplog):
        telemetry = _sample_telemetry()
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            telemetry.log()
        messages = [record.getMessage() for record in caplog.records]
        assert any("engine=rp-growth" in m for m in messages)
        assert any(m.startswith("phase mine") for m in messages)


class TestCheckFields:
    def test_one_rule_for_every_schema(self):
        required = (("n", int), ("x", float), ("ok", bool))
        check_fields({"n": 1, "x": 2, "ok": True}, required, "qa record")
        for bad, key in (
            ({"n": True, "x": 2.0, "ok": True}, "'n' must be int"),
            ({"n": 1, "x": "2", "ok": True}, "'x' must be float"),
            ({"n": 1, "x": 2.0, "ok": 1}, "'ok' must be bool"),
            ({"n": 1, "ok": True}, "missing required key 'x'"),
        ):
            with pytest.raises(ValueError, match=key):
                check_fields(bad, required, "qa record")


def _work(monitor):
    with span("inner"):
        pass
    return [1, 2, 3], None, lambda: {"dataset_digest": "d"}


class TestProfileCall:
    def test_wraps_any_callable(self):
        result, telemetry = profile_call(
            _work, "baseline/frequent",
            ObservabilityOptions(collect_stats=True),
            params={"min_sup": 2},
        )
        assert result == [1, 2, 3]
        assert telemetry.patterns_found == 3
        assert telemetry.stats == MiningStats(patterns_found=3)
        (inner,) = telemetry.spans
        assert inner.name == "inner"
        record = telemetry.as_run_record()
        validate_run_record(record)
        assert record["dataset_digest"] == "d"

    def test_telemetry_off_collects_nothing(self):
        def work(monitor):
            assert monitor is None
            return [1], None, pytest.fail  # extra must not be called

        assert profile_call(
            work, "x", ObservabilityOptions(progress=False)
        ) == ([1], None)

    def test_trace_holds_one_run_record(self):
        handle = io.StringIO()
        profile_call(
            _work, "x", ObservabilityOptions(trace=handle, progress=False)
        )
        (record,) = read_trace(io.StringIO(handle.getvalue()))
        validate_run_record(record)
        assert [root["name"] for root in record["spans"]] == ["inner"]

    def test_closes_only_a_monitor_it_built(self):
        metrics = io.StringIO()
        seen = []

        def work(monitor):
            seen.append(monitor)
            return [], None, None

        profile_call(
            work, "x", ObservabilityOptions(progress=False, metrics=metrics)
        )
        assert seen[0]._closed
        assert '"repro_runs_total"' in metrics.getvalue()
        injected = MiningMonitor()
        profile_call(work, "x", ObservabilityOptions(monitor=injected))
        assert seen[1] is injected and not injected._closed

"""Tests for the process-safe metrics registry (repro.obs.metrics)."""

import io
import json
import threading

import pytest

from repro.exceptions import ParameterError
from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsEmitter,
    MetricsRegistry,
    publish_mining_stats,
    render_prometheus,
    validate_metrics_record,
)
from repro.obs.counters import MiningStats


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ParameterError):
            registry.counter("repro_things_total").inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", {"engine": "rp-growth"})
        b = registry.counter("repro_x_total", {"engine": "rp-growth"})
        assert a is b

    def test_label_sets_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", {"engine": "a"}).inc()
        registry.counter("repro_x_total", {"engine": "b"}).inc(2)
        snapshot = registry.snapshot()
        values = {
            tuple(sorted(entry["labels"].items())): entry["value"]
            for entry in snapshot["counters"]
        }
        assert values[(("engine", "a"),)] == 1.0
        assert values[(("engine", "b"),)] == 2.0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ParameterError):
            registry.gauge("repro_x_total")

    def test_bad_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ParameterError):
            registry.counter("bad name with spaces")


class TestHistogram:
    def test_boundary_value_lands_in_le_bucket(self):
        # Prometheus buckets are `le` (less-or-equal): an observation
        # exactly on a boundary belongs to that boundary's bucket.
        registry = MetricsRegistry()
        hist = registry.histogram("repro_h", boundaries=(1.0, 2.0))
        hist.observe(1.0)
        hist.observe(2.0)
        hist.observe(2.0001)
        assert hist.bucket_counts() == [1, 1, 1]
        assert hist.cumulative_counts() == [1, 2, 3]

    def test_below_first_and_above_last(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_h", boundaries=(1.0,))
        hist.observe(0.0)
        hist.observe(100.0)
        assert hist.bucket_counts() == [1, 1]
        assert hist.count == 2
        assert hist.sum == pytest.approx(100.0)

    def test_boundaries_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ParameterError):
            registry.histogram("repro_h", boundaries=(2.0, 1.0))

    def test_boundary_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h", boundaries=(1.0, 2.0))
        with pytest.raises(ParameterError):
            registry.histogram("repro_h", boundaries=(1.0, 3.0))


class TestSnapshot:
    def test_snapshot_validates(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total").inc()
        registry.gauge("repro_g").set(4.2)
        registry.histogram("repro_h", boundaries=(0.1, 1.0)).observe(0.5)
        record = registry.snapshot()
        validate_metrics_record(record)
        assert record["schema"] == METRICS_SCHEMA

    def test_snapshot_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", {"engine": "rp-growth"}).inc(3)
        registry.histogram("repro_h", boundaries=(1.0,)).observe(0.5)
        record = json.loads(json.dumps(registry.snapshot()))
        validate_metrics_record(record)
        assert record["counters"][0]["value"] == 3.0

    def test_validation_catches_count_mismatch(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h", boundaries=(1.0,)).observe(0.5)
        record = registry.snapshot()
        record["histograms"][0]["count"] = 99
        with pytest.raises(ValueError):
            validate_metrics_record(record)

    def test_snapshot_under_concurrent_update(self):
        # A snapshot taken while writers hammer the registry must be
        # internally consistent: every histogram's counts sum to its
        # count, and nothing raises.
        registry = MetricsRegistry()
        stop = threading.Event()

        def writer(tag):
            counter = registry.counter(
                "repro_w_total", {"writer": tag}
            )
            hist = registry.histogram(
                "repro_w_seconds", boundaries=(0.5,)
            )
            while not stop.is_set():
                counter.inc()
                hist.observe(0.25)

        threads = [
            threading.Thread(target=writer, args=(str(i),), daemon=True)
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(50):
                record = registry.snapshot()
                validate_metrics_record(record)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
        final = registry.snapshot()
        validate_metrics_record(final)
        total = sum(entry["value"] for entry in final["counters"])
        assert total == final["histograms"][0]["count"]


class TestPrometheusRendering:
    def test_cumulative_buckets_and_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_h_seconds", boundaries=(0.1, 1.0)
        )
        hist.observe(0.1)
        hist.observe(0.5)
        hist.observe(5.0)
        text = render_prometheus(registry)
        assert 'repro_h_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_h_seconds_bucket{le="1.0"} 2' in text
        assert 'repro_h_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_h_seconds_count 3" in text
        assert "# TYPE repro_h_seconds histogram" in text

    def test_labels_rendered_and_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_c_total", {"path": 'a"b\\c'}
        ).inc()
        text = render_prometheus(registry)
        assert 'path="a\\"b\\\\c"' in text


class TestEmitter:
    def test_emit_writes_valid_jsonl(self):
        stream = io.StringIO()
        registry = MetricsRegistry()
        emitter = MetricsEmitter(registry, stream, interval=0.001)
        registry.counter("repro_c_total").inc()
        emitter.emit()
        emitter.close()
        lines = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if line.strip()
        ]
        assert lines
        for record in lines:
            validate_metrics_record(record)

    def test_maybe_emit_rate_limited(self):
        stream = io.StringIO()
        emitter = MetricsEmitter(
            MetricsRegistry(), stream, interval=3600.0
        )
        first = emitter.maybe_emit()
        second = emitter.maybe_emit()
        assert first and not second
        emitter.close(final=False)
        assert len(stream.getvalue().splitlines()) == 1


class TestPublishMiningStats:
    def test_every_counter_field_published(self):
        registry = MetricsRegistry()
        stats = MiningStats(patterns_found=7, candidate_items=3)
        publish_mining_stats(registry, stats, engine="rp-growth")
        snapshot = registry.snapshot()
        names = {entry["name"] for entry in snapshot["counters"]}
        for field in MiningStats.field_names():
            assert f"repro_mining_{field}_total" in names
        values = {
            entry["name"]: entry["value"]
            for entry in snapshot["counters"]
        }
        assert values["repro_mining_patterns_found_total"] == 7.0
        labels = {
            tuple(entry["labels"].items())
            for entry in snapshot["counters"]
        }
        assert labels == {(("engine", "rp-growth"),)}

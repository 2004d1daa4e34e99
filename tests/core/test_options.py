"""Options objects and the façade that takes them."""

import warnings

import pytest

from repro import (
    ObservabilityOptions,
    ParallelMiner,
    ResilienceOptions,
    mine_recurring_patterns,
)
from repro.datasets import paper_running_example
from repro.exceptions import ParameterError


class TestResilienceOptions:
    def test_defaults(self):
        options = ResilienceOptions()
        assert options.timeout is None
        assert options.max_retries == 2
        assert options.fallback == "serial"
        assert options.fault_plan is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ResilienceOptions().timeout = 5.0

    @pytest.mark.parametrize("timeout", [0, -1, "soon", True])
    def test_bad_timeout(self, timeout):
        with pytest.raises(ParameterError, match="timeout"):
            ResilienceOptions(timeout=timeout)

    @pytest.mark.parametrize("retries", [-1, 1.5, "two", True])
    def test_bad_max_retries(self, retries):
        with pytest.raises(ParameterError, match="max_retries"):
            ResilienceOptions(max_retries=retries)

    def test_bad_fallback(self):
        with pytest.raises(ParameterError, match="fallback"):
            ResilienceOptions(fallback="ignore")


class TestObservabilityOptions:
    def test_defaults_disabled(self):
        options = ObservabilityOptions()
        assert not options.enabled
        assert options.dataset is None

    @pytest.mark.parametrize(
        "kwargs",
        [dict(collect_stats=True), dict(trace="trace.jsonl")],
    )
    def test_enabled_by_stats_or_trace(self, kwargs):
        assert ObservabilityOptions(**kwargs).enabled

    def test_track_memory_alone_is_not_enabled(self):
        assert not ObservabilityOptions(track_memory=True).enabled


class TestFacadeIntegration:
    def test_options_objects_accepted_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found, telemetry = mine_recurring_patterns(
                paper_running_example(), per=2, min_ps=3, min_rec=2,
                resilience=ResilienceOptions(max_retries=1),
                observability=ObservabilityOptions(collect_stats=True),
            )
        assert len(found) == 8
        assert telemetry.stats.patterns_found == 8

    def test_flat_kwargs_raise_type_error(self):
        """The removed flat spellings are plain unknown keywords."""
        with pytest.raises(TypeError, match="collect_stats"):
            mine_recurring_patterns(
                paper_running_example(), per=2, min_ps=3, min_rec=2,
                collect_stats=True,
            )
        with pytest.raises(TypeError, match="timeout"):
            mine_recurring_patterns(
                paper_running_example(), per=2, min_ps=3, min_rec=2,
                timeout=5.0,
            )
        with pytest.raises(TypeError, match="timeout"):
            ParallelMiner(per=2, min_ps=3, min_rec=2, timeout=5.0)

    def test_track_memory_without_telemetry_warns(self):
        """Regression pin: this used to silently do nothing."""
        with pytest.warns(
            RuntimeWarning, match="track_memory=True has no effect"
        ):
            found = mine_recurring_patterns(
                paper_running_example(), per=2, min_ps=3, min_rec=2,
                observability=ObservabilityOptions(track_memory=True),
            )
        # The warning does not change the return contract.
        assert len(found) == 8

    def test_track_memory_with_stats_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found, telemetry = mine_recurring_patterns(
                paper_running_example(), per=2, min_ps=3, min_rec=2,
                observability=ObservabilityOptions(
                    collect_stats=True, track_memory=True
                ),
            )
        assert telemetry.memory_peak_bytes is not None

"""The engine registry: specs, names, capability-driven behaviour."""

import pytest

from repro.core.engines import (
    EngineSpec,
    engine_names,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.core.miner import mine_recurring_patterns
from repro.datasets import paper_running_example
from repro.exceptions import ParameterError


class TestRegistry:
    def test_builtin_engines_in_order(self):
        assert engine_names() == ("rp-growth", "rp-eclat-vec", "naive")
        assert engine_names(supports_jobs=True) == (
            "rp-growth", "rp-eclat-vec"
        )
        assert engine_names(supports_jobs=False) == ("naive",)

    def test_get_engine_returns_spec(self):
        spec = get_engine("rp-growth")
        assert isinstance(spec, EngineSpec)
        assert spec.supports_jobs
        assert not spec.exhaustive

    def test_naive_capabilities(self):
        spec = get_engine("naive")
        assert spec.exhaustive
        assert not spec.supports_jobs

    def test_unknown_engine_message(self):
        with pytest.raises(ParameterError, match="unknown engine 'bogus'"):
            get_engine("bogus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            register_engine("rp-growth", lambda *a, **k: None)

    def test_register_and_unregister_roundtrip(self):
        spec = register_engine(
            "test-dummy", lambda *a, **k: None, description="test only"
        )
        try:
            assert "test-dummy" in engine_names()
            assert get_engine("test-dummy") is spec
            # Not parallel-capable by default.
            assert "test-dummy" not in engine_names(supports_jobs=True)
        finally:
            unregister_engine("test-dummy")
        assert "test-dummy" not in engine_names()

    def test_spec_validation(self):
        with pytest.raises(ParameterError, match="name"):
            EngineSpec(name="", factory=lambda: None)
        with pytest.raises(ParameterError, match="callable"):
            EngineSpec(name="x", factory="not-callable")


class _ReversingEngine:
    """A toy engine: delegates to rp-growth (capability demo)."""

    def __init__(self, per, min_ps, min_rec):
        from repro.core.rp_growth import RPGrowth

        self._inner = RPGrowth(per, min_ps, min_rec)
        self.last_stats = None

    def mine(self, database):
        result = self._inner.mine(database)
        self.last_stats = self._inner.last_stats
        return result


class TestCapabilityDrivenDispatch:
    def test_naive_jobs_rejection_is_capability_driven(self):
        with pytest.raises(
            ParameterError, match="'naive' does not support jobs > 1"
        ):
            mine_recurring_patterns(
                paper_running_example(), per=2, min_ps=3, min_rec=2,
                engine="naive", jobs=2,
            )

    def test_registered_engine_mines_through_facade(self):
        register_engine(
            "test-delegate",
            lambda per, min_ps, min_rec, **_: _ReversingEngine(
                per, min_ps, min_rec
            ),
        )
        try:
            found = mine_recurring_patterns(
                paper_running_example(), per=2, min_ps=3, min_rec=2,
                engine="test-delegate",
            )
            assert len(found) == 8
            # No supports_jobs flag -> parallel runs are refused.
            with pytest.raises(ParameterError, match="supports_jobs"):
                mine_recurring_patterns(
                    paper_running_example(), per=2, min_ps=3, min_rec=2,
                    engine="test-delegate", jobs=2,
                )
        finally:
            unregister_engine("test-delegate")

    def test_registered_vertical_engine_mines_with_jobs(self):
        """Regression: pool workers used to build their engine from a
        hard-coded name list, so a vertical engine registered with
        supports_jobs ran the wrong engine (and crashed) at jobs=2."""
        from repro.core.rp_eclat_vec import RPEclatVec

        register_engine(
            "test-eclat-singletons",
            lambda per, min_ps, min_rec, **_: RPEclatVec(
                per, min_ps, min_rec, max_length=1
            ),
            supports_jobs=True,
        )
        params = dict(
            per=2, min_ps=3, min_rec=2, engine="test-eclat-singletons"
        )
        try:
            serial = mine_recurring_patterns(
                paper_running_example(), **params, jobs=1
            )
            parallel = mine_recurring_patterns(
                paper_running_example(), **params, jobs=2
            )
            assert list(parallel) == list(serial)
            assert {len(pattern.items) for pattern in serial} == {1}
        finally:
            unregister_engine("test-eclat-singletons")

"""Unit tests for LinkageConfig (Table 2 weights, Alg. 1 parameters)."""

import pytest

from repro.blocking.standard import CrossProductBlocker, StandardBlocker
from repro.core.config import OMEGA1, OMEGA2, LinkageConfig


class TestTable2Weights:
    def test_omega1_equal_weights(self):
        weights = [weight for _, _, weight in OMEGA1]
        assert weights == [0.2] * 5

    def test_omega2_weights(self):
        as_dict = {attr: weight for attr, _, weight in OMEGA2}
        assert as_dict == {
            "first_name": 0.4,
            "sex": 0.2,
            "surname": 0.2,
            "address": 0.1,
            "occupation": 0.1,
        }

    def test_matching_methods(self):
        for spec in (OMEGA1, OMEGA2):
            methods = {attr: method for attr, method, _ in spec}
            assert methods["sex"] == "exact"
            for attr in ("first_name", "surname", "address", "occupation"):
                assert methods[attr] == "qgram"


class TestThresholdSchedule:
    def test_paper_default_schedule(self):
        schedule = LinkageConfig().threshold_schedule()
        assert schedule == (0.7, 0.65, 0.6, 0.55, 0.5)

    def test_single_round_when_bounds_equal(self):
        config = LinkageConfig(delta_high=0.5, delta_low=0.5)
        assert config.threshold_schedule() == (0.5,)

    def test_non_iterative_helper(self):
        config = LinkageConfig().non_iterative()
        assert config.threshold_schedule() == (0.5,)
        assert config.delta_high == config.delta_low == 0.5

    def test_max_iterations_caps_schedule(self):
        config = LinkageConfig(
            delta_high=0.9, delta_low=0.1, delta_step=0.01, max_iterations=5
        )
        assert len(config.threshold_schedule()) == 5

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            LinkageConfig(delta_high=0.4, delta_low=0.5)
        with pytest.raises(ValueError):
            LinkageConfig(delta_step=0.0)
        # Values that would silently empty or hollow out a run are
        # rejected, each naming its field.
        for field, kwargs in (
            ("delta_high", dict(delta_high=1.5, delta_low=1.2)),
            ("delta_high", dict(delta_high=-0.1, delta_low=-0.2)),
            ("delta_low", dict(delta_low=-0.5)),
            ("remaining_threshold", dict(remaining_threshold=2.0)),
            ("remaining_threshold", dict(remaining_threshold=-0.1)),
            ("max_block_size", dict(max_block_size=-5)),
            ("max_iterations", dict(max_iterations=0)),
            ("rp_tolerance", dict(rp_tolerance=0)),
            ("rp_tolerance", dict(rp_tolerance=-1.0)),
        ):
            with pytest.raises(ValueError, match=field):
                LinkageConfig(**kwargs)
        # The bounds themselves stay legal.
        LinkageConfig(delta_high=1.0, delta_low=0.0, remaining_threshold=1.0,
                      max_block_size=0, max_iterations=1)


class TestBuilders:
    def test_build_sim_func_defaults_to_delta_high(self):
        func = LinkageConfig().build_sim_func()
        assert func.threshold == 0.7
        assert func.attributes == (
            "first_name",
            "sex",
            "surname",
            "address",
            "occupation",
        )

    def test_build_sim_func_with_threshold(self):
        assert LinkageConfig().build_sim_func(0.55).threshold == 0.55

    def test_build_remaining_sim_func(self):
        config = LinkageConfig(remaining_threshold=0.8)
        assert config.build_remaining_sim_func().threshold == 0.8

    def test_remaining_weights_override(self):
        config = LinkageConfig(
            remaining_weights=(("first_name", "qgram", 1.0),),
            remaining_threshold=0.9,
        )
        func = config.build_remaining_sim_func()
        assert func.attributes == ("first_name",)

    def test_build_blocker_variants(self):
        assert isinstance(LinkageConfig().build_blocker(), StandardBlocker)
        assert isinstance(
            LinkageConfig(blocking="cross").build_blocker(), CrossProductBlocker
        )
        custom = CrossProductBlocker()
        assert LinkageConfig(blocking=custom).build_blocker() is custom
        with pytest.raises(ValueError):
            LinkageConfig(blocking="magic").build_blocker()

    def test_year_gap_validation(self):
        with pytest.raises(ValueError):
            LinkageConfig(year_gap=0)

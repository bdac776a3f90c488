"""Tests for the exponential decay model (Section 3.1, Equations 3-8)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.decay import DecayModel, log_add


class TestDecayModelConstruction:
    def test_default_parameters_match_paper(self):
        model = DecayModel()
        assert model.a == 0.998
        assert model.lam == 1.0

    def test_rate_is_a_to_the_lambda(self):
        model = DecayModel(a=0.5, lam=2.0)
        assert model.rate == pytest.approx(0.25)

    @pytest.mark.parametrize("a", [0.0, 1.0, 1.5, -0.1])
    def test_invalid_base_rejected(self, a):
        with pytest.raises(ValueError):
            DecayModel(a=a)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_invalid_lambda_rejected(self, lam):
        with pytest.raises(ValueError):
            DecayModel(lam=lam)


class TestFreshness:
    def test_fresh_point_has_freshness_one(self):
        model = DecayModel()
        assert model.freshness(5.0, 5.0) == pytest.approx(1.0)

    def test_freshness_decreases_over_time(self):
        model = DecayModel()
        assert model.freshness(0.0, 10.0) < model.freshness(0.0, 1.0)

    def test_freshness_formula(self):
        model = DecayModel(a=0.9, lam=2.0)
        assert model.freshness(0.0, 3.0) == pytest.approx(0.9 ** 6)

    def test_freshness_rejects_time_before_arrival(self):
        model = DecayModel()
        with pytest.raises(ValueError):
            model.freshness(10.0, 5.0)

    @given(st.floats(min_value=0.0, max_value=500.0))
    def test_freshness_always_in_unit_interval(self, elapsed):
        model = DecayModel()
        value = model.freshness(0.0, elapsed)
        assert 0.0 < value <= 1.0


class TestDensityUpdates:
    def test_log_rate_is_the_log_of_the_rate(self):
        model = DecayModel(a=0.9, lam=2.0)
        assert model.log_rate == 2.0 * math.log(0.9)
        assert model.log_rate == pytest.approx(math.log(model.rate))

    def test_log_add_is_equation_8_on_keys(self):
        # rho_{t+1} = a^(lambda*dt) * rho_t + 1, with keys relative to t0 = 0.
        model = DecayModel(a=0.998, lam=1.0)
        key = math.log(10.0)  # density 10 at t = 0
        now = 2.0
        after = log_add(key, -model.log_rate * now)
        assert math.exp(after + model.log_rate * now) == pytest.approx(0.998**2 * 10.0 + 1.0)

    def test_log_add_of_equal_keys_adds_ln_2(self):
        assert log_add(3.0, 3.0) == 3.0 + math.log(2.0)

    def test_decay_density_is_multiplicative(self):
        model = DecayModel(a=0.5, lam=1.0)
        assert model.decay_density(8.0, 3.0) == pytest.approx(1.0)

    def test_decay_rejects_negative_elapsed(self):
        model = DecayModel()
        with pytest.raises(ValueError):
            model.decay_density(1.0, -1.0)

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_decay_composes(self, density, t1, t2):
        model = DecayModel()
        once = model.decay_density(density, t1 + t2)
        twice = model.decay_density(model.decay_density(density, t1), t2)
        assert once == pytest.approx(twice, rel=1e-9, abs=1e-9)

    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_log_add_rounds_as_numpy_logaddexp(self, x, y):
        assert log_add(x, y) == float(np.logaddexp(np.array([x]), np.array([y]))[0])
        assert log_add(x, y) == log_add(y, x)


class TestThresholds:
    def test_total_weight_matches_geometric_series(self):
        model = DecayModel(a=0.998, lam=1.0)
        assert model.total_weight(1000.0) == pytest.approx(1000.0 / (1.0 - 0.998))

    def test_active_threshold_is_beta_times_total_weight(self):
        model = DecayModel(a=0.998, lam=1.0)
        threshold = model.active_threshold(0.0021, 1000.0)
        assert threshold == pytest.approx(0.0021 * model.total_weight(1000.0))

    def test_active_threshold_paper_value(self):
        # beta=0.0021, v=1000, a^lambda=0.998 -> threshold = 1050
        model = DecayModel(a=0.998, lam=1.0)
        assert model.active_threshold(0.0021, 1000.0) == pytest.approx(1050.0)

    def test_active_threshold_rejects_bad_beta(self):
        model = DecayModel()
        with pytest.raises(ValueError):
            model.active_threshold(1.5, 1000.0)

    def test_total_weight_rejects_bad_rate(self):
        model = DecayModel()
        with pytest.raises(ValueError):
            model.total_weight(0.0)

    def test_safe_deletion_interval_lets_threshold_decay_below_one(self):
        # After delta_T_del a cell at the active threshold has density < 1.
        model = DecayModel(a=0.998, lam=1.0)
        beta, rate = 0.0021, 1000.0
        interval = model.safe_deletion_interval(beta, rate)
        threshold = model.active_threshold(beta, rate)
        assert model.decay_density(threshold, interval) <= 1.0 + 1e-6

    def test_safe_deletion_interval_positive(self):
        model = DecayModel()
        assert model.safe_deletion_interval(0.0021, 1000.0) > 0

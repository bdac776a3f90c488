"""Tests for EDMStreamConfig validation."""

import pytest

from repro.core.config import EDMStreamConfig


class TestDefaults:
    def test_defaults_match_paper_parameters(self):
        config = EDMStreamConfig()
        assert config.beta == 0.0021
        assert config.decay_a == 0.998
        assert config.decay_lambda == 1.0
        assert config.stream_rate == 1000.0
        assert config.enable_density_filter and config.enable_triangle_filter
        assert config.adaptive_tau

    def test_beta_range_validation_passes_for_defaults(self):
        EDMStreamConfig().validate_beta_range()

    def test_beta_range_validation_rejects_too_small_beta(self):
        config = EDMStreamConfig(beta=1e-7, stream_rate=1000.0)
        with pytest.raises(ValueError):
            config.validate_beta_range()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": 0.0},
            {"radius": -1.0},
            {"beta": 0.0},
            {"beta": 1.0},
            {"decay_a": 1.0},
            {"decay_a": 0.0},
            {"decay_lambda": 0.0},
            {"decay_lambda": 1e6},  # a^λ underflows to 0
            {"stream_rate": 0.0},
            {"tau": 0.0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"init_size": 1},
            {"maintenance_interval": 0.0},
            {"snapshot_interval": 0.0},
            {"tau_reoptimize_interval": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EDMStreamConfig(**kwargs)

    def test_valid_explicit_tau_and_alpha(self):
        config = EDMStreamConfig(tau=2.5, alpha=0.4)
        assert config.tau == 2.5
        assert config.alpha == 0.4

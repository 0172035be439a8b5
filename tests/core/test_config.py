"""Unit tests for OmegaConfig."""

import pytest

from repro.core.config import OmegaConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = OmegaConfig()
        assert config.alive_period == 1.0
        assert config.timeout_unit == 1.0

    def test_crash_recovery_extensions_are_off_by_default(self):
        # The paper's exact semantics: no round resync / rejoin, unpaced T1,
        # a SUSPICION at the end of every round (line 10).
        config = OmegaConfig()
        assert config.round_resync_gap is None
        assert config.pace_alive is False
        assert config.quiet_rounds is False

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            OmegaConfig(alive_period=0.0)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            OmegaConfig(alive_jitter=-0.5)

    def test_rejects_non_positive_timeout_unit(self):
        with pytest.raises(ValueError):
            OmegaConfig(timeout_unit=0.0)

    def test_rejects_negative_initial_timeout(self):
        with pytest.raises(ValueError):
            OmegaConfig(initial_timeout=-1.0)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            OmegaConfig(alpha=0)

    def test_rejects_bad_history_horizon(self):
        with pytest.raises(ValueError):
            OmegaConfig(history_horizon=0)

    def test_history_horizon_none_allowed(self):
        assert OmegaConfig(history_horizon=None).history_horizon is None


class TestEffectiveAlpha:
    def test_defaults_to_n_minus_t(self):
        assert OmegaConfig().effective_alpha(7, 3) == 4

    def test_explicit_alpha_overrides(self):
        assert OmegaConfig(alpha=5).effective_alpha(7, 3) == 5

    def test_alpha_above_n_rejected(self):
        with pytest.raises(ValueError):
            OmegaConfig(alpha=9).effective_alpha(7, 3)


class TestSection7Functions:
    def test_defaults_are_zero(self):
        config = OmegaConfig()
        assert config.window_extension(10) == 0
        assert config.timeout_extension(10) == 0.0

    def test_custom_functions_applied(self):
        config = OmegaConfig(f=lambda rn: rn // 10, g=lambda rn: 0.5 * rn)
        assert config.window_extension(25) == 2
        assert config.timeout_extension(4) == 2.0

    def test_negative_f_rejected_at_call_time(self):
        config = OmegaConfig(f=lambda rn: -1)
        with pytest.raises(ValueError):
            config.window_extension(1)

    def test_negative_g_rejected_at_call_time(self):
        config = OmegaConfig(g=lambda rn: -1.0)
        with pytest.raises(ValueError):
            config.timeout_extension(1)

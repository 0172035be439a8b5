"""Unit tests for repro.util.validation."""

import pytest

from repro.util.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    validate_process_count,
)


class TestRequirePositive:
    def test_accepts_positive_value(self):
        assert require_positive(2.5, "x") == 2.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            require_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_positive(-1, "x")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            require_non_negative(-0.1, "x")


class TestRequireInRange:
    def test_accepts_inside(self):
        assert require_in_range(0.5, "p", 0.0, 1.0) == 0.5

    def test_inclusive_bounds_by_default(self):
        assert require_in_range(1.0, "p", 0.0, 1.0) == 1.0
        assert require_in_range(0.0, "p", 0.0, 1.0) == 0.0

    def test_exclusive_high_bound(self):
        with pytest.raises(ValueError):
            require_in_range(1.0, "p", 0.0, 1.0, high_inclusive=False)

    def test_exclusive_low_bound(self):
        with pytest.raises(ValueError):
            require_in_range(0.0, "p", 0.0, 1.0, low_inclusive=False)

    def test_unbounded_sides(self):
        assert require_in_range(1e9, "p", low=0.0) == 1e9
        assert require_in_range(-1e9, "p", high=0.0) == -1e9

    @pytest.mark.parametrize(
        "bounds",
        [
            dict(low=0.0),
            dict(low=0.0, low_inclusive=False),
            dict(high=1.0),
            dict(high=1.0, high_inclusive=False),
        ],
    )
    def test_nan_fails_every_bound(self, bounds):
        with pytest.raises(ValueError, match="p must be"):
            require_in_range(float("nan"), "p", **bounds)


class TestValidateProcessCount:
    def test_accepts_paper_parameters(self):
        validate_process_count(5, 2)
        validate_process_count(2, 1)
        validate_process_count(10, 0)

    def test_rejects_single_process(self):
        with pytest.raises(ValueError, match="n must be >= 2"):
            validate_process_count(1, 0)

    def test_rejects_t_equal_to_n(self):
        with pytest.raises(ValueError, match="t must be < n"):
            validate_process_count(4, 4)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            validate_process_count(4, -1)

    def test_rejects_non_integer_parameters(self):
        with pytest.raises(TypeError):
            validate_process_count(4.0, 1)

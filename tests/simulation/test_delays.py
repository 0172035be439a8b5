"""Unit tests for the delay models."""

import pytest

from repro.simulation.delays import ConstantDelay, UniformDelay
from repro.util.rng import RandomSource


class TestConstantDelay:
    def test_returns_value(self):
        assert ConstantDelay(2.5).delay(0, 1, "ALIVE", 1) == 2.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1.0)

    def test_describe(self):
        assert "2.5" in ConstantDelay(2.5).describe()


class TestUniformDelay:
    def test_within_bounds(self):
        model = UniformDelay(1.0, 2.0, RandomSource(0))
        for _ in range(200):
            assert 1.0 <= model.delay(0, 1, "ALIVE", 1) <= 2.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            UniformDelay(3.0, 1.0, RandomSource(0))

    def test_deterministic_for_seed(self):
        a = UniformDelay(0.0, 1.0, RandomSource(9))
        b = UniformDelay(0.0, 1.0, RandomSource(9))
        assert [a.delay(0, 1, "ALIVE", 1) for _ in range(5)] == [b.delay(0, 1, "ALIVE", 1) for _ in range(5)]


"""Unit tests for the delay models."""

import pytest

from repro.simulation.delays import (
    ConstantDelay,
    MessageContext,
    UniformDelay,
)
from repro.util.rng import RandomSource


def ctx(sender=0, dest=1, tag="ALIVE", rn=1, send_time=0.0):
    return MessageContext(
        sender=sender, dest=dest, tag=tag, round_number=rn, send_time=send_time
    )


class TestConstantDelay:
    def test_returns_value(self):
        assert ConstantDelay(2.5).delay(ctx()) == 2.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1.0)

    def test_describe(self):
        assert "2.5" in ConstantDelay(2.5).describe()


class TestUniformDelay:
    def test_within_bounds(self):
        model = UniformDelay(1.0, 2.0, RandomSource(0))
        for _ in range(200):
            assert 1.0 <= model.delay(ctx()) <= 2.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            UniformDelay(3.0, 1.0, RandomSource(0))

    def test_deterministic_for_seed(self):
        a = UniformDelay(0.0, 1.0, RandomSource(9))
        b = UniformDelay(0.0, 1.0, RandomSource(9))
        assert [a.delay(ctx()) for _ in range(5)] == [b.delay(ctx()) for _ in range(5)]


"""Unit tests for the fair-lossy link models."""

import pytest

from repro.channels.lossy import BernoulliLossModel, PeriodicLossModel
from repro.simulation.delays import ConstantDelay


class TestBernoulliLoss:
    def test_loss_probability_validated(self):
        with pytest.raises(ValueError):
            BernoulliLossModel(ConstantDelay(1.0), loss_probability=1.0, seed=0)
        with pytest.raises(ValueError):
            BernoulliLossModel(ConstantDelay(1.0), loss_probability=-0.1, seed=0)

    def test_zero_probability_never_drops(self):
        model = BernoulliLossModel(ConstantDelay(1.0), loss_probability=0.0, seed=0)
        assert all(model.delay(0, 1, "ALIVE", 1) == 1.0 for _ in range(100))

    def test_loss_rate_roughly_matches(self):
        model = BernoulliLossModel(ConstantDelay(1.0), loss_probability=0.3, seed=1)
        outcomes = [model.delay(0, 1, "ALIVE", 1) for _ in range(2000)]
        rate = outcomes.count(None) / len(outcomes)
        assert 0.2 < rate < 0.4

    def test_fairness_some_messages_get_through(self):
        model = BernoulliLossModel(ConstantDelay(1.0), loss_probability=0.9, seed=2)
        outcomes = [model.delay(0, 1, "ALIVE", 1) for _ in range(500)]
        assert any(outcome is not None for outcome in outcomes)

    def test_protect_acks(self):
        model = BernoulliLossModel(
            ConstantDelay(1.0), loss_probability=0.99, seed=3, protect_acks=True
        )
        assert all(model.delay(0, 1, "ACK", 1) == 1.0 for _ in range(50))


class TestPeriodicLoss:
    def test_period_validated(self):
        with pytest.raises(ValueError):
            PeriodicLossModel(ConstantDelay(1.0), period=1)

    def test_every_kth_message_dropped_per_link(self):
        model = PeriodicLossModel(ConstantDelay(1.0), period=3)
        outcomes = [model.delay(0, 1, "ALIVE", 1) for _ in range(9)]
        assert outcomes.count(None) == 3
        assert outcomes[2] is None and outcomes[5] is None and outcomes[8] is None

    def test_links_counted_independently(self):
        model = PeriodicLossModel(ConstantDelay(1.0), period=2)
        assert model.delay(0, 1, "ALIVE", 1) is not None
        assert model.delay(1, 0, "ALIVE", 1) is not None
        assert model.delay(0, 1, "ALIVE", 1) is None

    def test_no_two_consecutive_drops(self):
        model = PeriodicLossModel(ConstantDelay(1.0), period=2)
        outcomes = [model.delay(0, 1, "ALIVE", 1) for _ in range(20)]
        for first, second in zip(outcomes, outcomes[1:]):
            assert not (first is None and second is None)

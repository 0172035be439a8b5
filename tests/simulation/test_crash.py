"""Unit tests for the random crash-time draw behind ``crashes_per_shard``."""

import pytest

from repro.simulation.crash import random_crash_times
from repro.util.rng import RandomSource


class TestBuilders:
    def test_random_respects_t_and_protection(self):
        rng = RandomSource(3)
        times = random_crash_times(n=7, t=3, rng=rng, horizon=100.0, protect=[0])
        assert len(times) == 3
        assert 0 not in times
        assert all(0.0 <= time <= 100.0 for time in times.values())

    def test_random_draw_sequence_is_pinned(self):
        """The draw order (victims first, then one uniform time each, over the
        whole horizon) is why this function exists: every seeded
        ``crashes_per_shard`` run replays it."""
        times = random_crash_times(
            n=7, t=3, rng=RandomSource(3), horizon=100.0, protect=[0]
        )
        assert list(times.items()) == [
            (2, 36.99551665480792),
            (5, 60.39200385961945),
            (6, 62.572030410805404),
        ]

    def test_random_with_explicit_count(self):
        times = random_crash_times(n=5, t=2, rng=RandomSource(1), horizon=10.0, count=1)
        assert len(times) == 1

    def test_random_rejects_count_above_t(self):
        with pytest.raises(ValueError):
            random_crash_times(n=5, t=1, rng=RandomSource(1), horizon=10.0, count=2)

    def test_random_rejects_overprotection(self):
        with pytest.raises(ValueError):
            random_crash_times(
                n=3, t=2, rng=RandomSource(1), horizon=10.0, protect=[0, 1, 2]
            )

    def test_random_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            random_crash_times(n=5, t=2, rng=RandomSource(1), horizon=-1.0)

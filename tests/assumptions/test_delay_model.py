"""Unit tests for the star delay model (assumption enforcement at message level)."""

import pytest

from repro.assumptions.star import (
    TIMELY,
    WINNING,
    AlwaysFastPolicy,
    FixedSlowSetPolicy,
    StarDelayModel,
    StarSchedule,
    StarTiming,
)


def timely_schedule(**kwargs):
    defaults = dict(n=7, t=3, center=0, first_star_round=1, max_gap=1, point_mode=TIMELY)
    defaults.update(kwargs)
    return StarSchedule(**defaults)


class TestStarTimingValidation:
    def test_defaults_valid(self):
        timing = StarTiming()
        assert timing.delta == timing.timely_high
        assert timing.timely_beats_fast

    def test_rejects_inverted_ranges(self):
        with pytest.raises(ValueError):
            StarTiming(fast_low=3.0, fast_high=2.0)

    def test_rejects_slow_below_fast(self):
        with pytest.raises(ValueError):
            StarTiming(slow_low=1.0, slow_high=2.0)

    def test_rejects_blocker_below_winning(self):
        with pytest.raises(ValueError):
            StarTiming(winning_delay=30.0, blocker_delay=20.0)

    def test_rejects_negative_growth(self):
        with pytest.raises(ValueError):
            StarTiming(slow_growth=-0.1)

    def test_timely_not_winning_variant(self):
        timing = StarTiming.timely_not_winning()
        assert not timing.timely_beats_fast
        assert timing.fast_high < timing.timely_low

    def test_growth_helpers(self):
        timing = StarTiming(slow_growth=1.0, winning_growth=2.0)
        low, high = timing.slow_delay_bounds(10)
        assert low == timing.slow_low + 10
        assert high == timing.slow_high + 10
        assert timing.winning_delay_for(10) == timing.winning_delay + 20
        assert timing.blocker_delay_for(10) > timing.winning_delay_for(10)


class TestStarOverrides:
    def test_center_to_point_is_timely(self):
        schedule = timely_schedule()
        model = StarDelayModel(schedule, AlwaysFastPolicy(), StarTiming(), seed=0)
        rn = 1
        point = next(iter(schedule.points(rn)))
        for _ in range(20):
            delay = model.delay(0, point, "ALIVE", rn)
            assert delay <= StarTiming().delta

    def test_center_to_non_point_uses_background(self):
        schedule = timely_schedule()
        timing = StarTiming()
        model = StarDelayModel(schedule, AlwaysFastPolicy(), timing, seed=0)
        rn = 1
        non_points = set(range(7)) - schedule.points(rn) - {0}
        for dest in non_points:
            delay = model.delay(0, dest, "ALIVE", rn)
            assert timing.fast_low <= delay <= timing.fast_high

    def test_non_star_round_unprotected(self):
        schedule = timely_schedule(first_star_round=100)
        timing = StarTiming()
        model = StarDelayModel(schedule, FixedSlowSetPolicy([0]), timing, seed=0)
        delay = model.delay(0, 1, "ALIVE", 5)
        assert delay >= timing.slow_low

    def test_winning_point_gets_winning_delay_and_blockers(self):
        schedule = timely_schedule(point_mode=WINNING)
        timing = StarTiming()
        model = StarDelayModel(schedule, AlwaysFastPolicy(), timing, seed=0)
        rn = 1
        point = next(iter(schedule.points(rn)))
        assert model.delay(0, point, "ALIVE", rn) == timing.winning_delay
        blockers = schedule.blockers(rn, point)
        for blocker in blockers:
            assert model.delay(blocker, point, "ALIVE", rn) == timing.blocker_delay
        # Non-blocker senders to the same point remain fast.
        others = set(range(7)) - blockers - {0, point}
        for sender in others:
            assert model.delay(sender, point, "ALIVE", rn) <= timing.fast_high

    def test_winning_delay_is_beyond_fast_messages(self):
        timing = StarTiming()
        assert timing.winning_delay > timing.fast_high


class TestBackgroundAndControl:
    def test_slow_sender_gets_slow_delay(self):
        timing = StarTiming()
        model = StarDelayModel(None, FixedSlowSetPolicy([2]), timing, seed=0)
        assert model.delay(2, 1, "ALIVE", 5) >= timing.slow_low
        assert model.delay(3, 1, "ALIVE", 5) <= timing.fast_high

    def test_unconstrained_tags_use_control_delay(self):
        timing = StarTiming()
        model = StarDelayModel(None, FixedSlowSetPolicy([2]), timing, seed=0)
        delay = model.delay(2, 1, "SUSPICION", 5)
        assert delay <= timing.control_high

    def test_message_without_round_number_uses_control_delay(self):
        timing = StarTiming()
        model = StarDelayModel(None, FixedSlowSetPolicy([2]), timing, seed=0)
        delay = model.delay(2, 1, "ALIVE", None)
        assert delay <= timing.control_high

    def test_heartbeat_and_response_tags_constrained(self):
        timing = StarTiming()
        model = StarDelayModel(None, FixedSlowSetPolicy([2]), timing, seed=0)
        for tag in ("HEARTBEAT", "RESPONSE"):
            assert model.delay(2, 1, tag, 5) >= timing.slow_low

    def test_describe_mentions_schedule_and_policy(self):
        model = StarDelayModel(
            timely_schedule(), FixedSlowSetPolicy([1]), StarTiming(), seed=0
        )
        text = model.describe()
        assert "center=0" in text and "fixed-slow" in text

    def test_no_schedule_describe(self):
        model = StarDelayModel(None, AlwaysFastPolicy(), StarTiming(), seed=0)
        assert "no-star" in model.describe()

    def test_delays_never_negative(self):
        model = StarDelayModel(
            timely_schedule(point_mode="mixed"),
            FixedSlowSetPolicy([3]),
            StarTiming(),
            seed=4,
        )
        for sender in range(7):
            for dest in range(7):
                if sender == dest:
                    continue
                for rn in range(1, 10):
                    assert model.delay(sender, dest, "ALIVE", rn) >= 0.0

"""Unit tests for the star schedule (the combinatorial heart of assumption A)."""

import pytest

from repro.assumptions.star import TIMELY, WINNING, StarSchedule


class TestConstruction:
    def test_rejects_center_out_of_range(self):
        with pytest.raises(ValueError):
            StarSchedule(n=5, t=2, center=5)

    def test_rejects_bad_gap(self):
        with pytest.raises(ValueError):
            StarSchedule(n=5, t=2, center=0, max_gap=0)

    def test_rejects_bad_first_round(self):
        with pytest.raises(ValueError):
            StarSchedule(n=5, t=2, center=0, first_star_round=0)

    def test_rejects_unknown_rotation(self):
        with pytest.raises(ValueError):
            StarSchedule(n=5, t=2, center=0, rotation="bogus")

    def test_rejects_unknown_point_mode(self):
        with pytest.raises(ValueError):
            StarSchedule(n=5, t=2, center=0, point_mode="bogus")

    def test_winning_mode_needs_blockers(self):
        # n must be at least t + 2 so a winning point has t blockers available.
        with pytest.raises(ValueError):
            StarSchedule(n=4, t=3, center=0, point_mode=WINNING)


class TestStarRounds:
    def test_every_round_is_star_round_when_gap_one(self):
        schedule = StarSchedule(n=5, t=2, center=0, first_star_round=3, max_gap=1)
        assert not schedule.is_star_round(1)
        assert not schedule.is_star_round(2)
        assert all(schedule.is_star_round(rn) for rn in range(3, 50))

    def test_gaps_bounded_by_d(self):
        schedule = StarSchedule(n=5, t=2, center=0, first_star_round=1, max_gap=5, seed=3)
        rounds = schedule.star_rounds_up_to(500)
        gaps = [b - a for a, b in zip(rounds, rounds[1:])]
        assert gaps, "expected several star rounds"
        assert max(gaps) <= 5
        assert min(gaps) >= 1

    def test_gap_function_extends_gaps(self):
        schedule = StarSchedule(
            n=5, t=2, center=0, max_gap=1, gap_function=lambda k: k
        )
        rounds = schedule.star_rounds_up_to(100)
        gaps = [b - a for a, b in zip(rounds, rounds[1:])]
        # Gaps are 1 + k for the k-th star round: strictly increasing.
        assert gaps == sorted(gaps)
        assert gaps[0] < gaps[-1]

    def test_deterministic_for_seed(self):
        a = StarSchedule(n=5, t=2, center=0, max_gap=4, seed=9)
        b = StarSchedule(n=5, t=2, center=0, max_gap=4, seed=9)
        assert a.star_rounds_up_to(200) == b.star_rounds_up_to(200)

    def test_rounds_before_rn0_unconstrained(self):
        schedule = StarSchedule(n=5, t=2, center=0, first_star_round=10, max_gap=2)
        assert schedule.points(5) == frozenset()


class TestPoints:
    def test_points_have_size_t_and_exclude_center(self):
        schedule = StarSchedule(n=7, t=3, center=2, max_gap=1)
        for rn in range(1, 40):
            points = schedule.points(rn)
            assert len(points) == 3
            assert 2 not in points

    def test_fixed_rotation_keeps_same_points(self):
        schedule = StarSchedule(n=7, t=3, center=0, max_gap=1, rotation="fixed")
        first = schedule.points(1)
        assert all(schedule.points(rn) == first for rn in range(2, 30))

    def test_round_robin_rotation_changes_points(self):
        schedule = StarSchedule(n=7, t=3, center=0, max_gap=1, rotation="round_robin")
        distinct = {schedule.points(rn) for rn in range(1, 30)}
        assert len(distinct) > 1
        # Over enough rounds every non-centre process serves as a point.
        covered = set().union(*distinct)
        assert covered == {1, 2, 3, 4, 5, 6}

    def test_random_rotation_is_deterministic_per_seed(self):
        a = StarSchedule(n=7, t=3, center=0, max_gap=1, rotation="random", seed=5)
        b = StarSchedule(n=7, t=3, center=0, max_gap=1, rotation="random", seed=5)
        assert [a.points(rn) for rn in range(1, 20)] == [
            b.points(rn) for rn in range(1, 20)
        ]

    def test_points_cached(self):
        schedule = StarSchedule(n=7, t=3, center=0, max_gap=1, rotation="random")
        assert schedule.points(3) == schedule.points(3)

    @pytest.mark.parametrize("rotation", ["fixed", "round_robin", "random"])
    def test_a_round_asked_again_out_of_order_is_unchanged(self, rotation):
        """Only the latest round is memoised; an older one is re-derived."""
        schedule = StarSchedule(n=7, t=3, center=0, max_gap=3, rotation=rotation, seed=4)

        def describe(rn):
            points = schedule.points(rn)
            return points, {
                point: (schedule.point_property(rn, point), schedule.blockers(rn, point))
                for point in points
            }

        in_order = [describe(rn) for rn in range(1, 60)]
        assert [describe(rn) for rn in reversed(range(1, 60))] == in_order[::-1]


    @pytest.mark.parametrize("rotation", ["fixed", "random"])
    def test_memos_answer_revisited_rounds_like_a_fresh_schedule(self, rotation):
        """Points, "mixed" properties and blockers each memoise one round per
        point; revisiting rounds and interleaving points must not leak it."""
        params = dict(n=6, t=2, center=0, max_gap=2, rotation=rotation, seed=11)
        schedule = StarSchedule(**params)
        seen = set()
        for rn in list(range(1, 13)) + list(range(12, 0, -1)) + [1, 6, 1, 6]:
            for point in range(1, 6):
                fresh = StarSchedule(**params)
                assert schedule.blockers(rn, point) == fresh.blockers(rn, point), (rn, point)
                prop = schedule.point_property(rn, point)
                assert prop == fresh.point_property(rn, point), (rn, point)
                assert schedule.points(rn) == fresh.points(rn), rn
                seen.add(prop)
        assert seen == {None, TIMELY, WINNING}


class TestPointProperties:
    def test_timely_mode(self):
        schedule = StarSchedule(n=7, t=3, center=0, point_mode=TIMELY)
        for rn in range(1, 10):
            for point in schedule.points(rn):
                assert schedule.point_property(rn, point) == TIMELY

    def test_winning_mode(self):
        schedule = StarSchedule(n=7, t=3, center=0, point_mode=WINNING)
        for rn in range(1, 10):
            for point in schedule.points(rn):
                assert schedule.point_property(rn, point) == WINNING

    def test_mixed_mode_uses_both(self):
        schedule = StarSchedule(n=7, t=3, center=0, point_mode="mixed", seed=2)
        seen = set()
        for rn in range(1, 60):
            for point in schedule.points(rn):
                seen.add(schedule.point_property(rn, point))
        assert seen == {TIMELY, WINNING}

    def test_non_point_has_no_property(self):
        schedule = StarSchedule(n=7, t=3, center=0, point_mode=TIMELY)
        rn = 1
        non_points = {pid for pid in range(7)} - schedule.points(rn) - {0}
        for pid in non_points:
            assert schedule.point_property(rn, pid) is None


class TestBlockers:
    def test_blockers_exclude_center_and_point(self):
        schedule = StarSchedule(n=7, t=3, center=0, point_mode=WINNING)
        for rn in range(1, 20):
            for point in schedule.points(rn):
                blockers = schedule.blockers(rn, point)
                assert len(blockers) == 3
                assert 0 not in blockers
                assert point not in blockers

    def test_blockers_rotate_across_rounds(self):
        schedule = StarSchedule(n=7, t=3, center=0, rotation="fixed", point_mode=WINNING)
        point = next(iter(schedule.points(1)))
        distinct = {schedule.blockers(rn, point) for rn in range(1, 20)}
        assert len(distinct) > 1

    def test_describe_mentions_parameters(self):
        schedule = StarSchedule(n=7, t=3, center=4, max_gap=6)
        text = schedule.describe()
        assert "center=4" in text and "D=6" in text

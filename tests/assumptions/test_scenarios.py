"""Unit tests for the concrete scenario classes (Sections 3 and 7 special cases)."""

import pytest

from repro.assumptions import (
    AsynchronousAdversaryScenario,
    CombinedMrtScenario,
    EventualRotatingStarScenario,
    EventualTMovingSourceScenario,
    EventualTSourceScenario,
    GrowingStarScenario,
    IntermittentRotatingStarScenario,
    MessagePatternScenario,
    RotatingPersecutionScenario,
    StrictTSourceScenario,
    special_case_scenarios,
)
from repro.assumptions.growing import GrowingStarDelayModel
from repro.assumptions.star import TIMELY, WINNING


class TestCommonBehaviour:
    def test_center_and_protection(self):
        scenario = IntermittentRotatingStarScenario(n=7, t=3, center=4, seed=0)
        assert scenario.center == 4
        assert scenario.protected_processes() == frozenset({4})

    def test_center_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IntermittentRotatingStarScenario(n=5, t=2, center=7)

    def test_build_delay_model_returns_fresh_instances(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, seed=0)
        assert scenario.build_delay_model() is not scenario.build_delay_model()

    def test_recommended_config_matches_timing(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, seed=0)
        config = scenario.recommended_omega_config()
        assert config.alive_period == 1.0
        assert config.timeout_unit == 1.0

    def test_describe_mentions_name_and_center(self):
        scenario = EventualTSourceScenario(n=5, t=2, center=1, seed=0)
        assert "t-source" in scenario.describe()
        assert "center=1" in scenario.describe()

    def test_guarantees_flag(self):
        assert IntermittentRotatingStarScenario(5, 2).guarantees_eventual_leader()
        assert not AsynchronousAdversaryScenario(5, 2).guarantees_eventual_leader()


class TestSpecialCaseConfigurations:
    def test_a0_scenario_has_gap_one(self):
        scenario = EventualRotatingStarScenario(n=5, t=2, seed=0)
        assert scenario.max_gap == 1
        with pytest.raises(ValueError):
            EventualRotatingStarScenario(n=5, t=2, max_gap=3)

    def test_t_source_is_fixed_and_timely(self):
        scenario = EventualTSourceScenario(n=7, t=3, seed=0)
        assert scenario.rotation == "fixed"
        assert scenario.point_mode == TIMELY

    def test_moving_source_rotates(self):
        scenario = EventualTMovingSourceScenario(n=7, t=3, seed=0)
        assert scenario.rotation == "round_robin"
        assert scenario.point_mode == TIMELY

    def test_message_pattern_is_winning_and_time_free(self):
        scenario = MessagePatternScenario(n=7, t=3, seed=0)
        assert scenario.rotation == "fixed"
        assert scenario.point_mode == WINNING
        assert scenario.first_star_round == 1

    def test_message_pattern_harsh_variant(self):
        scenario = MessagePatternScenario(n=7, t=3, center=0, seed=0, harsh=True)
        assert scenario.timing.winning_delay == MessagePatternScenario.HARSH_WINNING_DELAY
        # The centre's unconstrained links are permanently slow in the harsh variant.
        policy = scenario.background_policy()
        assert policy.is_slow(0, 5)
        assert not policy.is_slow(1, 5)

    def test_combined_mrt_mixes_properties(self):
        scenario = CombinedMrtScenario(n=7, t=3, seed=0)
        assert scenario.point_mode == "mixed"

    def test_strict_t_source_timely_not_winning(self):
        scenario = StrictTSourceScenario(n=7, t=3, seed=0)
        assert not scenario.timing.timely_beats_fast

    def test_intermittent_scenario_gap(self):
        scenario = IntermittentRotatingStarScenario(n=7, t=3, max_gap=6, seed=0)
        schedule = scenario.build_schedule()
        rounds = schedule.star_rounds_up_to(200)
        gaps = [b - a for a, b in zip(rounds, rounds[1:])]
        assert max(gaps) <= 6

    def test_special_case_factory_returns_all_cases(self):
        scenarios = special_case_scenarios(7, 3, center=1, seed=5)
        names = {scenario.name for scenario in scenarios}
        assert len(scenarios) == 6
        assert "eventual-t-source" in names
        assert "message-pattern" in names
        assert all(scenario.center == 1 for scenario in scenarios)


class TestPersecutionScenario:
    def test_persecutes_everyone_by_default(self):
        scenario = RotatingPersecutionScenario(n=5, t=2, center=2, seed=0)
        policy = scenario.background_policy()
        victims = {policy.victim_for_round(rn) for rn in range(1, 200)}
        assert victims == {0, 1, 2, 3, 4}

    def test_can_exempt_center(self):
        scenario = RotatingPersecutionScenario(
            n=5, t=2, center=2, seed=0, persecute_center=False
        )
        policy = scenario.background_policy()
        victims = {policy.victim_for_round(rn) for rn in range(1, 200)}
        assert 2 not in victims

    def test_uses_harsh_slow_delays(self):
        scenario = RotatingPersecutionScenario(n=5, t=2, seed=0)
        assert scenario.timing.slow_low >= RotatingPersecutionScenario.HARSH_SLOW_LOW


class TestAdversaryScenario:
    def test_has_no_center(self):
        scenario = AsynchronousAdversaryScenario(n=5, t=2, seed=0)
        assert scenario.center is None
        assert scenario.protected_processes() == frozenset()

    def test_delay_model_has_no_star(self):
        scenario = AsynchronousAdversaryScenario(n=5, t=2, seed=0)
        model = scenario.build_delay_model()
        assert model.schedule is None


class TestGrowingScenario:
    def test_growing_delay_model_applies_g(self):
        scenario = GrowingStarScenario(
            n=5, t=2, center=0, seed=0, f=lambda k: k, g=lambda rn: 0.1 * rn
        )
        model = scenario.build_delay_model()
        assert isinstance(model, GrowingStarDelayModel)
        low, high = model.timely_delay(100)
        assert low >= 10.0

    def test_negative_g_rejected_at_use(self):
        scenario = GrowingStarScenario(n=5, t=2, center=0, seed=0, g=lambda rn: -1.0)
        model = scenario.build_delay_model()
        point = next(iter(model.schedule.points(model.schedule.first_star_round)))
        with pytest.raises(ValueError):
            model.delay(0, point, "ALIVE", model.schedule.first_star_round)

    def test_recommended_config_carries_f_and_g(self):
        scenario = GrowingStarScenario(
            n=5, t=2, center=0, seed=0, f=lambda k: 2, g=lambda rn: 1.5
        )
        config = scenario.recommended_omega_config()
        assert config.window_extension(10) == 2
        assert config.timeout_extension(10) == 1.5

    def test_schedule_gaps_grow(self):
        scenario = GrowingStarScenario(
            n=5, t=2, center=0, seed=0, max_gap=1, f=lambda k: k // 2
        )
        schedule = scenario.build_schedule()
        rounds = schedule.star_rounds_up_to(300)
        gaps = [b - a for a, b in zip(rounds, rounds[1:])]
        assert gaps[-1] > gaps[0]

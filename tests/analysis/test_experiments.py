"""Unit tests for the experiment runner and bounds audit."""

import pytest

from repro.analysis.bounds import audit_bounds
from repro.analysis.experiments import (
    ExperimentResult,
    build_system,
    compare_algorithms,
    run_omega_experiment,
)
from repro.assumptions import EventualTSourceScenario, IntermittentRotatingStarScenario
from repro.core import Figure1Omega, Figure3Omega, OmegaConfig
from repro.simulation import Crash, FaultPlan, Recover


class TestBuildSystem:
    def test_builds_matching_system(self):
        scenario = EventualTSourceScenario(n=5, t=2, seed=0)
        system = build_system(scenario, Figure3Omega, seed=0)
        assert system.config.n == 5
        assert all(isinstance(shell.algorithm, Figure3Omega) for shell in system.shells)

    def test_rejects_crashing_the_protected_center(self):
        scenario = EventualTSourceScenario(n=5, t=2, center=3, seed=0)
        with pytest.raises(ValueError, match="protected"):
            build_system(
                scenario, Figure3Omega, fault_plan=FaultPlan.crashes({3: 10.0})
            )

    def test_admits_a_center_that_crashes_and_recovers(self):
        """Only *permanent* damage breaks the eventual assumption: the same
        crash followed by a recovery leaves the centre correct."""
        scenario = EventualTSourceScenario(n=5, t=2, center=3, seed=0)
        plan = FaultPlan([Crash(time=10.0, pid=3), Recover(time=20.0, pid=3)])
        system = build_system(scenario, Figure3Omega, fault_plan=plan)
        assert 3 in system.correct_ids()

    def test_config_override(self):
        scenario = EventualTSourceScenario(n=5, t=2, seed=0)
        config = OmegaConfig(alive_period=2.0)
        system = build_system(scenario, Figure3Omega, config=config)
        assert system.shells[0].algorithm.config.alive_period == 2.0


class TestRunOmegaExperiment:
    def test_result_fields_populated(self):
        scenario = EventualTSourceScenario(n=5, t=2, seed=3)
        result = run_omega_experiment(scenario, Figure3Omega, duration=150.0, seed=3)
        assert result.scenario == scenario.name
        assert result.algorithm == "figure3"
        assert result.n == 5 and result.t == 2
        assert result.messages_sent > 0
        assert result.messages_by_tag["ALIVE"] > 0
        assert result.rounds_completed > 10
        assert result.duration == 150.0
        assert result.stabilized
        assert result.leader_is_correct

    def test_crashes_reported(self):
        scenario = EventualTSourceScenario(n=5, t=2, center=4, seed=3)
        result = run_omega_experiment(
            scenario,
            Figure3Omega,
            duration=150.0,
            seed=3,
            fault_plan=FaultPlan.crashes({1: 20.0}),
        )
        assert result.crashed == [1]
        assert result.final_leader != 1

    def test_rejects_non_positive_duration(self):
        scenario = EventualTSourceScenario(n=5, t=2, seed=3)
        with pytest.raises(ValueError):
            run_omega_experiment(scenario, Figure3Omega, duration=0.0)

    def test_as_row_matches_headers(self):
        scenario = EventualTSourceScenario(n=4, t=1, seed=1)
        result = run_omega_experiment(scenario, Figure3Omega, duration=80.0, seed=1)
        assert len(result.as_row()) == len(ExperimentResult.row_headers())

    def test_messages_per_time_unit(self):
        scenario = EventualTSourceScenario(n=4, t=1, seed=1)
        result = run_omega_experiment(scenario, Figure3Omega, duration=80.0, seed=1)
        assert result.messages_per_time_unit() == pytest.approx(
            result.messages_sent / 80.0
        )


class TestCompareAlgorithms:
    def test_runs_each_algorithm_once(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, seed=2)
        results = compare_algorithms(
            scenario, [Figure1Omega, Figure3Omega], duration=100.0, seed=2
        )
        assert [result.algorithm for result in results] == ["figure1", "figure3"]


class TestBoundsAudit:
    def test_theorem4_and_lemma8_hold_for_figure3(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, seed=4)
        result = run_omega_experiment(scenario, Figure3Omega, duration=200.0, seed=4)
        assert result.bounds.theorem4_holds
        assert result.bounds.lemma8_violations == 0
        assert result.bounds.max_level_ever <= result.bounds.bound_b + 1

    def test_audit_directly_on_system(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, seed=4)
        system = build_system(scenario, Figure3Omega, seed=4)
        system.run_until(100.0)
        audit = audit_bounds(system)
        assert audit.max_level_ever >= 0
        assert isinstance(audit.final_timeouts, dict)
        assert len(audit.as_row()) == 5

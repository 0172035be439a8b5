"""Integration tests for the consensus / replicated-log layer (experiments E7-E8).

E7 (Theorem 5): with a majority of correct processes and an intermittent rotating
t-star, every submitted command is eventually decided and delivered in the same
order everywhere.

E8 (indulgence, Section 1.1): whatever the behaviour of the oracle and of the
network — including scenarios in which no assumption holds and the oracle never
stabilises — the log never violates agreement or validity.
"""

import pytest

from repro.assumptions import (
    AsynchronousAdversaryScenario,
    IntermittentRotatingStarScenario,
)
from repro.consensus import NOOP
from repro.simulation import FaultPlan
from repro.system_builders import build_consensus_system


def submitted_commands(system):
    return {f"cmd-{pid}" for pid in range(system.config.n)}


def submit_one_per_process(system):
    for shell in system.shells:
        shell.algorithm.submit(f"cmd-{shell.pid}")


def check_safety(system, allowed_values):
    """Per-position agreement + validity over every process (even crashed ones)."""
    per_position = {}
    for shell in system.shells:
        for position, value in shell.algorithm.log.decided_log().items():
            per_position.setdefault(position, set()).add(value)
    for position, values in per_position.items():
        assert len(values) == 1, f"agreement violated at position {position}: {values}"
        value = next(iter(values))
        assert value == NOOP or value in allowed_values, f"invalid decision {value!r}"
    return per_position


class TestE7LivenessUnderTheStarAssumption:
    def test_all_commands_decided_failure_free(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, center=1, seed=301, max_gap=3)
        system = build_consensus_system(n=5, t=2, scenario=scenario, seed=301)
        submit_one_per_process(system)
        system.run_until(300.0)
        expected = submitted_commands(system)
        for shell in system.correct_shells():
            assert set(shell.algorithm.log.delivered()) == expected
        check_safety(system, expected)

    def test_all_commands_decided_despite_crashes(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, center=2, seed=302, max_gap=3)
        crashes = FaultPlan.crashes({0: 60.0, 4: 120.0})
        system = build_consensus_system(
            n=5, t=2, scenario=scenario, seed=302, fault_plan=crashes
        )
        submit_one_per_process(system)
        system.run_until(400.0)
        check_safety(system, submitted_commands(system))
        # Commands submitted at correct processes must be delivered everywhere that
        # survived; commands of processes that crashed early may or may not make it.
        must_deliver = {f"cmd-{pid}" for pid in system.correct_ids()}
        for shell in system.correct_shells():
            delivered = set(shell.algorithm.log.delivered())
            assert must_deliver <= delivered

    def test_logs_are_prefix_consistent(self):
        scenario = IntermittentRotatingStarScenario(n=7, t=3, center=3, seed=303, max_gap=4)
        system = build_consensus_system(n=7, t=3, scenario=scenario, seed=303)
        submit_one_per_process(system)
        system.run_until(300.0)
        logs = [shell.algorithm.log.delivered() for shell in system.correct_shells()]
        longest = max(logs, key=len)
        for log in logs:
            assert log == longest[: len(log)]

    def test_majority_requirement_enforced(self):
        scenario = IntermittentRotatingStarScenario(n=4, t=2, center=1, seed=304)
        with pytest.raises(ValueError, match="majority"):
            build_consensus_system(n=4, t=2, scenario=scenario, seed=304)


class TestE8IndulgenceUnderNoAssumption:
    def test_safety_holds_under_the_adversary(self):
        scenario = AsynchronousAdversaryScenario(n=5, t=2, seed=310)
        system = build_consensus_system(n=5, t=2, scenario=scenario, seed=310)
        submit_one_per_process(system)
        system.run_until(400.0)
        check_safety(system, submitted_commands(system))

    def test_safety_holds_under_adversary_with_crashes(self):
        scenario = AsynchronousAdversaryScenario(n=5, t=2, seed=311)
        crashes = FaultPlan.crashes({1: 50.0, 3: 100.0})
        system = build_consensus_system(
            n=5, t=2, scenario=scenario, seed=311, fault_plan=crashes
        )
        submit_one_per_process(system)
        system.run_until(400.0)
        check_safety(system, submitted_commands(system))

    def test_progress_resumes_once_a_good_scenario_holds(self):
        # Indulgence in action: the same stack, first under the adversary (no
        # liveness guarantee), then under the star assumption (liveness restored).
        good = IntermittentRotatingStarScenario(n=5, t=2, center=0, seed=312, max_gap=3)
        system = build_consensus_system(n=5, t=2, scenario=good, seed=312)
        submit_one_per_process(system)
        system.run_until(300.0)
        for shell in system.correct_shells():
            assert set(shell.algorithm.log.delivered()) == submitted_commands(system)

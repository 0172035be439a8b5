"""Ablation tests: each guard the paper adds is necessary for the claim it serves.

* Without the line-``*`` window test (i.e. Figure 1), the centre of an *intermittent*
  star keeps being charged: its suspicion level grows without bound (no guarantee
  survives), while Figures 2 and 3 freeze it.
* Without the line-``**`` minimality test (i.e. Figure 2), the suspicion levels of
  persistently slow or crashed processes grow without bound, while Figure 3 keeps
  every entry within ``B + 1`` (Theorem 4).
"""

from repro.analysis import build_system
from repro.analysis.experiments import run_omega_experiment
from repro.assumptions import IntermittentRotatingStarScenario, RotatingPersecutionScenario
from repro.core import Figure1Omega, Figure2Omega, Figure3Omega
from repro.simulation import FaultPlan

DURATION = 700.0


def center_level_over_time(scenario, algorithm_cls, duration, seed):
    """Return (level at 2/3 of the run, level at the end) of the centre's entry,
    maximised over all processes' local views."""
    system = build_system(scenario, algorithm_cls, seed=seed)
    system.run_until(2.0 * duration / 3.0)
    mid = max(
        shell.algorithm.susp_level[scenario.center] for shell in system.alive_shells()
    )
    system.run_until(duration)
    end = max(
        shell.algorithm.susp_level[scenario.center] for shell in system.alive_shells()
    )
    return mid, end


class TestWindowTestIsNecessary:
    """Figure 1 vs Figure 2/3 under the persecution scenario (A holds, A0 does not)."""

    def test_figure1_charges_center_far_more_than_figure2(self):
        # Under the intermittent star, the centre is quorum-suspected at every
        # persecuted non-star round.  Figure 1 turns each of those quorums into an
        # increment; Figure 2's window test absorbs them once the window is long
        # enough to contain a star round (level ~ D).  The gap between the two is
        # the measurable cost of dropping the line-* test.
        scenario = RotatingPersecutionScenario(n=5, t=2, center=2, seed=201)
        _, fig1_center = center_level_over_time(scenario, Figure1Omega, DURATION, seed=201)
        _, fig2_center = center_level_over_time(scenario, Figure2Omega, DURATION, seed=201)
        assert fig2_center <= scenario.max_gap + 2
        assert fig1_center > scenario.max_gap + 2
        assert fig1_center >= 2 * fig2_center

    def test_figure2_freezes_the_center(self):
        scenario = RotatingPersecutionScenario(n=5, t=2, center=2, seed=201)
        mid, end = center_level_over_time(scenario, Figure2Omega, DURATION, seed=201)
        assert end == mid, "the centre's level must stop growing under Figure 2"
        assert end <= scenario.max_gap + 3

    def test_figure3_freezes_the_center_and_stabilizes_on_it(self):
        scenario = RotatingPersecutionScenario(n=5, t=2, center=2, seed=201)
        result = run_omega_experiment(scenario, Figure3Omega, duration=900.0, seed=201)
        assert result.stabilized
        assert result.late_leader_changes == 0
        # Every non-centre process is persecuted for ever-growing stretches, so only
        # the star centre can end up least suspected.
        assert result.final_leader == scenario.center
        assert result.bounds.theorem4_holds


class TestMinimalityTestIsNecessary:
    """Figure 2 vs Figure 3: only Figure 3 bounds every variable (Theorem 4)."""

    def test_figure2_levels_grow_with_a_crashed_process(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, center=2, seed=202, max_gap=3)
        crashes = FaultPlan.crashes({4: 30.0})
        result = run_omega_experiment(
            scenario, Figure2Omega, duration=DURATION, seed=202, fault_plan=crashes
        )
        # The crashed process's level grows for ever (Lemma 3): far beyond B + 1.
        assert result.bounds.max_level_ever > result.bounds.bound_b + 1
        assert not result.bounds.theorem4_holds

    def test_figure3_levels_bounded_with_a_crashed_process(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, center=2, seed=202, max_gap=3)
        crashes = FaultPlan.crashes({4: 30.0})
        result = run_omega_experiment(
            scenario, Figure3Omega, duration=DURATION, seed=202, fault_plan=crashes
        )
        assert result.bounds.theorem4_holds
        assert result.bounds.lemma8_violations == 0
        assert result.stabilized

    def test_figure3_timeouts_bounded_figure2_timeouts_grow(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, center=2, seed=203, max_gap=3)
        crashes = FaultPlan.crashes({4: 30.0})
        fig2 = run_omega_experiment(
            scenario, Figure2Omega, duration=DURATION, seed=203, fault_plan=crashes
        )
        fig3 = run_omega_experiment(
            scenario, Figure3Omega, duration=DURATION, seed=203, fault_plan=crashes
        )
        assert max(fig2.bounds.final_timeouts.values()) > max(
            fig3.bounds.final_timeouts.values()
        )
        assert fig3.bounds.timeouts_stabilized

    def test_bounded_timeouts_keep_the_detector_responsive(self):
        # A by-product the paper highlights: bounded timeouts mean the receiving
        # rounds keep a steady pace, whereas Figure 2's growing timeouts slow the
        # whole detector down once a process has crashed.
        scenario = IntermittentRotatingStarScenario(n=5, t=2, center=2, seed=204, max_gap=3)
        crashes = FaultPlan.crashes({4: 30.0})
        fig2 = run_omega_experiment(
            scenario, Figure2Omega, duration=DURATION, seed=204, fault_plan=crashes
        )
        fig3 = run_omega_experiment(
            scenario, Figure3Omega, duration=DURATION, seed=204, fault_plan=crashes
        )
        assert fig3.rounds_completed > fig2.rounds_completed

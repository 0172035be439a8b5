"""Experiment runner shared by the tests, the examples and the benchmark harness.

:func:`run_omega_experiment` builds a system from a scenario and an algorithm class,
runs it for a virtual-time horizon, and condenses the execution into an
:class:`ExperimentResult` holding exactly the quantities the experiment benchmarks
(``benchmarks/bench_e*.py``) report: stabilisation time, final leader and its
correctness, leader changes, message counts, boundedness statistics.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Type

from repro.analysis.bounds import BoundsAudit, audit_bounds
from repro.analysis.metrics import LeaderPoller
from repro.assumptions.base import Scenario
from repro.core.config import OmegaConfig
from repro.core.omega_base import RotatingStarOmegaBase
from repro.simulation.faults import FaultPlan
from repro.simulation.system import System
from repro.system_builders import build_omega_system
from repro.util.validation import require_positive


@dataclasses.dataclass
class ExperimentResult:
    """Condensed outcome of one simulated execution."""

    scenario: str
    algorithm: str
    n: int
    t: int
    seed: int
    duration: float
    #: Earliest time from which all correct processes agreed on one correct leader.
    stabilization_time: Optional[float]
    #: Leader agreed on at the end of the run (None on disagreement).
    final_leader: Optional[int]
    #: True when the final leader is a process that never crashes.
    leader_is_correct: bool
    #: Number of leader changes observed at correct processes over the whole run.
    leader_changes: int
    #: Leader changes observed during the last third of the run (0 once stabilised).
    late_leader_changes: int
    #: Total messages handed to the network.
    messages_sent: int
    #: Messages by tag (ALIVE, SUSPICION, ...).
    messages_by_tag: Dict[str, int]
    #: Largest receiving round reached by any process.
    rounds_completed: int
    #: Boundedness audit (Theorem 4 / Lemma 8 / timeouts).
    bounds: BoundsAudit
    #: Ids of the processes that crashed during the run.
    crashed: List[int]

    @property
    def stabilized(self) -> bool:
        """True when the run reached a stable, correct, common leader."""
        return self.stabilization_time is not None

    def messages_per_time_unit(self) -> float:
        """Average network load (messages per virtual time unit)."""
        return self.messages_sent / self.duration if self.duration else 0.0

    def as_row(self) -> List[object]:
        """Row used by the benchmark report tables."""
        return [
            self.scenario,
            self.algorithm,
            self.n,
            self.t,
            "yes" if self.stabilized else "NO",
            "-" if self.stabilization_time is None else round(self.stabilization_time, 1),
            "-" if self.final_leader is None else self.final_leader,
            self.leader_changes,
            self.late_leader_changes,
            self.messages_sent,
            self.bounds.max_level_ever,
        ]

    @staticmethod
    def row_headers() -> List[str]:
        """Headers matching :meth:`as_row`."""
        return [
            "scenario",
            "algorithm",
            "n",
            "t",
            "stable",
            "stab_time",
            "leader",
            "changes",
            "late_changes",
            "messages",
            "max_level",
        ]


def build_system(
    scenario: Scenario,
    algorithm_cls: Type[RotatingStarOmegaBase],
    seed: int = 0,
    config: Optional[OmegaConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    tracer: Optional[object] = None,
) -> System:
    """Build a simulated system running *algorithm_cls* under *scenario*.

    :func:`~repro.system_builders.build_omega_system` behind an admission
    check: a plan that permanently breaks the scenario's assumption (e.g. one
    that leaves a protected process down) is rejected, because an experiment
    under a broken assumption measures nothing the paper claims.
    """
    if fault_plan is not None:
        violations = scenario.fault_plan_violations(fault_plan)
        if violations:
            raise ValueError(
                f"fault plan breaks the assumption of scenario {scenario.name}: "
                + "; ".join(violations)
            )
    return build_omega_system(
        scenario.n,
        scenario.t,
        scenario,
        algorithm_cls,
        config=config,
        seed=seed,
        tracer=tracer,
        fault_plan=fault_plan,
    )


def run_omega_experiment(
    scenario: Scenario,
    algorithm_cls: Type[RotatingStarOmegaBase],
    duration: float = 600.0,
    seed: int = 0,
    config: Optional[OmegaConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    poll_interval: float = 5.0,
) -> ExperimentResult:
    """Run one leader-election experiment and summarise it.

    Parameters
    ----------
    scenario:
        The behavioural assumption to enforce (or violate).
    algorithm_cls:
        One of the paper's algorithm classes (or any
        :class:`~repro.core.omega_base.RotatingStarOmegaBase` subclass).
    duration:
        Virtual-time horizon of the run.
    seed:
        Master seed (propagated to delays and crashes).
    config:
        Algorithm configuration; defaults to the scenario's recommendation.
    fault_plan:
        The run's faults; defaults to a fault-free run.
    poll_interval:
        Virtual-time distance between two leadership samples.
    """
    require_positive(duration, "duration")
    system = build_system(
        scenario,
        algorithm_cls,
        seed=seed,
        config=config,
        fault_plan=fault_plan,
    )
    poller = LeaderPoller(system, interval=poll_interval)
    system.run_until(duration)
    system.finish()
    return summarize_run(scenario, algorithm_cls, system, poller, seed, duration)


def summarize_run(
    scenario: Scenario,
    algorithm_cls: Type[RotatingStarOmegaBase],
    system: System,
    poller: LeaderPoller,
    seed: int,
    duration: float,
) -> ExperimentResult:
    """Condense a finished run into an :class:`ExperimentResult`."""
    correct_ids = system.correct_ids()
    stabilization = poller.stabilization_time(correct_ids)
    final_leader = poller.final_leader(correct_ids)
    rounds = 0
    for shell in system.shells:
        algorithm = shell.algorithm
        if isinstance(algorithm, RotatingStarOmegaBase):
            rounds = max(rounds, algorithm.receiving_round - 1)
    return ExperimentResult(
        scenario=scenario.name,
        algorithm=getattr(algorithm_cls, "variant_name", algorithm_cls.__name__),
        n=scenario.n,
        t=scenario.t,
        seed=seed,
        duration=duration,
        stabilization_time=stabilization,
        final_leader=final_leader,
        leader_is_correct=final_leader is not None and final_leader in correct_ids,
        leader_changes=poller.leader_changes(correct_ids),
        late_leader_changes=poller.leader_changes(
            correct_ids, after=2.0 * duration / 3.0
        ),
        messages_sent=system.stats.total_sent,
        messages_by_tag=dict(system.stats.sent_by_tag),
        rounds_completed=rounds,
        bounds=audit_bounds(system),
        crashed=system.fault_plan.final_down_ids(),
    )


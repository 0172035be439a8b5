"""Convenience builders for the most common system configurations.

These are thin wrappers over :class:`repro.simulation.system.System`: the one
place that turns a scenario into an Omega (or Omega + consensus) system.  The
experiment harness in :mod:`repro.analysis.experiments` builds through
:func:`build_omega_system` and adds the richer interface (assumption admission,
polling, summaries).
"""

from __future__ import annotations

from typing import Optional, Type

from repro.assumptions.base import Scenario
from repro.consensus.stack import OmegaConsensusStack
from repro.core.config import OmegaConfig
from repro.core.figure3 import Figure3Omega
from repro.core.omega_base import RotatingStarOmegaBase
from repro.simulation.faults import FaultPlan
from repro.simulation.system import System, SystemConfig

__all__ = ["build_consensus_system", "build_omega_system"]


def build_omega_system(
    n: int,
    t: int,
    scenario: Scenario,
    algorithm_cls: Type[RotatingStarOmegaBase] = Figure3Omega,
    config: Optional[OmegaConfig] = None,
    seed: int = 0,
    tracer: Optional[object] = None,
    fault_plan: Optional[FaultPlan] = None,
    start_jitter: float = 0.0,
) -> System:
    """Build a system in which every process runs one of the paper's Omega algorithms.

    Parameters
    ----------
    n, t:
        System parameters (must match the scenario's).
    scenario:
        Behavioural assumption to enforce; provides the delay model and the
        recommended algorithm configuration.
    algorithm_cls:
        Which of the paper's algorithms to run (Figure 3 by default).
    config:
        Algorithm configuration override.
    seed:
        Master seed of the run.
    fault_plan:
        The run's faults (crashes, recoveries, partitions, link faults);
        fault-free by default.
    start_jitter:
        Upper bound of the processes' random start offsets (see
        :class:`~repro.simulation.system.SystemConfig`).
    """
    if (n, t) != (scenario.n, scenario.t):
        raise ValueError(
            f"scenario was built for (n={scenario.n}, t={scenario.t}), "
            f"got (n={n}, t={t})"
        )
    omega_config = config if config is not None else scenario.recommended_omega_config()

    def factory(pid: int):
        return algorithm_cls(pid=pid, n=n, t=t, config=omega_config)

    return System(
        config=SystemConfig(n=n, t=t, seed=seed, start_jitter=start_jitter),
        process_factory=factory,
        delay_model=scenario.build_delay_model(),
        fault_plan=fault_plan,
        tracer=tracer,
    )


def build_consensus_system(
    n: int,
    t: int,
    scenario: Scenario,
    omega_cls: Type[RotatingStarOmegaBase] = Figure3Omega,
    omega_config: Optional[OmegaConfig] = None,
    seed: int = 0,
    drive_period: float = 2.0,
    batch_size: int = 1,
    tracer: Optional[object] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> System:
    """Build a system in which every process runs the Omega + replicated-log stack.

    Realises Theorem 5: with ``t < n/2`` and a scenario satisfying the intermittent
    rotating t-star, every submitted command is eventually decided and delivered.
    ``batch_size`` > 1 lets the leader pack several commands per consensus instance
    (see :mod:`repro.consensus.commands`).
    """
    if (n, t) != (scenario.n, scenario.t):
        raise ValueError(
            f"scenario was built for (n={scenario.n}, t={scenario.t}), "
            f"got (n={n}, t={t})"
        )
    config = omega_config if omega_config is not None else scenario.recommended_omega_config()

    def factory(pid: int):
        return OmegaConsensusStack(
            pid=pid,
            n=n,
            t=t,
            omega_cls=omega_cls,
            omega_config=config,
            drive_period=drive_period,
            batch_size=batch_size,
        )

    return System(
        config=SystemConfig(n=n, t=t, seed=seed),
        process_factory=factory,
        delay_model=scenario.build_delay_model(),
        fault_plan=fault_plan,
        tracer=tracer,
    )

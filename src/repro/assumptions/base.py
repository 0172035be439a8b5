"""Scenario abstraction.

A *scenario* packages everything needed to generate executions of ``AS_{n,t}`` that
satisfy (or deliberately violate) one of the behavioural assumptions discussed in the
paper: a delay model enforcing the assumption, the identity of the star centre (when
there is one), which processes must not crash for the assumption to hold, and a
recommended algorithm configuration whose time constants are consistent with the
scenario's delay constants.

Concrete scenarios live in :mod:`repro.assumptions.scenarios` (the intermittent
rotating t-star and every special case the paper lists in Section 3) and
:mod:`repro.assumptions.growing` (the ``A_{f,g}`` model of Section 7).
"""

from __future__ import annotations

import abc
from typing import FrozenSet, List, Optional

from repro.core.config import OmegaConfig
from repro.simulation.delays import DelayModel
from repro.simulation.faults import FaultPlan
from repro.util.validation import validate_process_count


class Scenario(abc.ABC):
    """A behavioural assumption made executable.

    Attributes
    ----------
    n, t:
        System parameters the scenario was built for.
    name:
        Short machine-friendly name (used in benchmark tables).
    """

    name: str = "scenario"

    def __init__(self, n: int, t: int) -> None:
        validate_process_count(n, t)
        self.n = n
        self.t = t

    @abc.abstractmethod
    def build_delay_model(self) -> DelayModel:
        """Return a fresh delay model enforcing the scenario.

        A fresh model is returned on every call so that two systems built from the
        same scenario do not share mutable RNG state.
        """

    @property
    def center(self) -> Optional[int]:
        """The star centre / source process, or ``None`` when the scenario has none."""
        return None

    def protected_processes(self) -> FrozenSet[int]:
        """Processes that must stay correct for the assumption to hold.

        Fault plans used with this scenario must not leave these processes down
        (see :meth:`fault_plan_violations`); the default is the centre (when any).
        """
        if self.center is None:
            return frozenset()
        return frozenset({self.center})

    def guarantees_eventual_leader(self) -> bool:
        """True when the scenario satisfies an assumption under which the paper
        proves eventual leadership (used by tests to pick the right assertion)."""
        return True

    # -- fault-plan composition -------------------------------------------------
    def fault_plan_violations(self, plan: FaultPlan) -> List[str]:
        """Explain how *plan* permanently breaks this scenario's assumption.

        The scenario's delay model constrains messages of its correct set (e.g.
        ALIVE messages from the star centre); a fault plan is orthogonal but can
        invalidate the assumption by taking that correct set away.  Only
        *permanent* damage is reported — a crash of a protected process without
        recovery, a partition that never heals and separates a protected process
        from another eventually-up process, or an unhealed blocked link touching
        a protected process.  Transient faults (healed partitions, recoveries,
        bounded link faults) leave the eventual assumption intact and produce no
        violation: that is precisely what makes the engine composable with the
        paper's *eventual* assumptions.

        Returns a list of human-readable violation descriptions, empty exactly
        when the plan preserves the assumption.
        """
        violations: List[str] = []
        protected = self.protected_processes()
        down, links = plan.final_state(self.n)
        correct = set(range(self.n)) - down
        for pid in sorted(protected):
            if pid not in correct:
                violations.append(
                    f"protected process {pid} is permanently down under the plan"
                )
        sides = links.partition_groups(self.n)
        if sides is not None:
            for pid in sorted(protected & correct):
                side = next(group for group in sides if pid in group)
                separated = sorted(correct.difference(side))
                if separated:
                    violations.append(
                        f"unhealed partition separates protected process {pid} "
                        f"from correct processes {separated}"
                    )
        for sender, dest in links.blocked_links():
            if (sender in protected or dest in protected) and (
                sender in correct and dest in correct
            ):
                violations.append(
                    f"link {sender}->{dest} involving a protected process is "
                    "permanently blocked"
                )
        for sender, dest in links.garbling_links():
            # A fully corrupting unhealed link is the data-plane analogue of a
            # blocked one: every payload crossing it is garbled and rejected at
            # the receiving end, forever.  Probabilistic or bounded corruption
            # is transient damage and stays admissible.
            if (sender in protected or dest in protected) and (
                sender in correct and dest in correct
            ):
                violations.append(
                    f"link {sender}->{dest} involving a protected process "
                    "permanently corrupts payloads"
                )
        return violations

    def recommended_omega_config(self) -> OmegaConfig:
        """An :class:`~repro.core.config.OmegaConfig` whose time constants match the
        scenario's delay constants (ALIVE period vs. timely bound, etc.)."""
        return OmegaConfig()

    def describe(self) -> str:
        """One-line human readable description."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n}, t={self.t})"

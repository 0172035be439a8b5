"""Audit of the boundedness claims of Section 6 (Figure 3).

The paper proves three quantitative properties of the Figure 3 algorithm that can be
checked mechanically on any execution:

* **Lemma 8** — at every process, at all times,
  ``max(susp_level) - min(susp_level) <= 1``;
* **Theorem 4** — no entry of any ``susp_level`` array ever exceeds ``B + 1``, where
  ``B`` is the largest value ever reached by the *smallest* entry of any array
  (operationally: the final common value of the eventual leader's entry);
* the **timeout values stabilise** (they are derived from ``max(susp_level)``).

Nothing here samples.  Each process checks its array at the end of every handler
that wrote a level and keeps the verdict in its counter registry
(``peak_susp_level``, ``lemma8_violations``), which survives restarts; each
incarnation keeps the instants its line-11 timeout changed
(``timeout_history``).  :func:`audit_bounds` reads those records, so every
state the arrays took and every timeout change is covered.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.core.omega_base import RotatingStarOmegaBase
from repro.simulation.system import System


@dataclasses.dataclass
class BoundsAudit:
    """Outcome of the boundedness audit of one execution.

    Attributes
    ----------
    max_level_ever:
        Largest suspicion-level entry any process ever held, across restarts.
    bound_b:
        The empirical ``B``: the largest value reached by the minimum entry of any
        live process's array.
    theorem4_holds:
        ``max_level_ever <= bound_b + 1``.
    lemma8_violations:
        Number of handler executions that left some process's array with
        ``max - min > 1``.
    timeouts_stabilized:
        True when no live process changed its line-11 timeout over the last
        quarter of the run.
    final_timeouts:
        pid -> last line-11 timeout value.
    """

    max_level_ever: int
    bound_b: int
    theorem4_holds: bool
    lemma8_violations: int
    timeouts_stabilized: bool
    final_timeouts: Dict[int, float]

    def as_row(self) -> List[object]:
        """Row representation used by the benchmark tables."""
        return [
            self.max_level_ever,
            self.bound_b,
            "yes" if self.theorem4_holds else "NO",
            self.lemma8_violations,
            "yes" if self.timeouts_stabilized else "NO",
        ]


def audit_bounds(system: System) -> BoundsAudit:
    """Audit the boundedness claims on a finished (or paused) execution.

    Crashed processes are included for ``max_level_ever`` and Lemma 8 (their
    records simply froze at crash time) but only live processes contribute to
    ``B`` and to the timeouts — the paper defines ``B`` from the values the arrays
    converge to, which crashed processes never do.
    """
    max_level_ever = 0
    lemma8_violations = 0
    bound_b = 0
    final_timeouts: Dict[int, float] = {}
    timeouts_stabilized = True
    tail_start = 0.75 * system.now
    for shell in system.shells:
        algorithm = shell.algorithm
        if not isinstance(algorithm, RotatingStarOmegaBase):
            continue
        counters = algorithm.counters
        max_level_ever = max(max_level_ever, counters.get("peak_susp_level", 0))
        lemma8_violations += counters.get("lemma8_violations", 0)
        if not shell.crashed:
            bound_b = max(bound_b, algorithm.susp_level.minimum())
            final_timeouts[shell.pid] = algorithm.current_timeout
            # An incarnation's first entry is its initial timer, not a change.
            if any(when >= tail_start for when, _ in algorithm.timeout_history[1:]):
                timeouts_stabilized = False

    return BoundsAudit(
        max_level_ever=max_level_ever,
        bound_b=bound_b,
        theorem4_holds=max_level_ever <= bound_b + 1,
        lemma8_violations=lemma8_violations,
        timeouts_stabilized=timeouts_stabilized,
        final_timeouts=final_timeouts,
    )

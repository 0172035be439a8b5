"""The paper's primary contribution: eventual leader election algorithms.

Public classes
--------------

* :class:`~repro.core.figure1.Figure1Omega` — algorithm of Figure 1 for
  ``AS_{n,t}[A0]`` (star present at every round after ``RN0``).
* :class:`~repro.core.figure2.Figure2Omega` — algorithm of Figure 2 for
  ``AS_{n,t}[A]`` (intermittent star), adds the line-``*`` window test.
* :class:`~repro.core.figure3.Figure3Omega` — bounded-variable algorithm of Figure 3,
  adds the line-``**`` minimality test.
* :class:`~repro.core.figure_fg.FgOmega` — Section-7 ``A_{f,g}`` generalisation.

plus the runtime-agnostic interfaces (:class:`Process`, :class:`Environment`,
:class:`LeaderOracle`), the protocol messages (:class:`Alive`, :class:`Suspicion`)
and the configuration dataclass (:class:`OmegaConfig`).
"""

from repro.core.config import OmegaConfig, TimeoutFunction, WindowFunction
from repro.core.composition import unwrap_round_number, unwrap_tag
from repro.core.figure1 import Figure1Omega
from repro.core.figure2 import Figure2Omega
from repro.core.figure3 import Figure3Omega
from repro.core.figure_fg import FgOmega
from repro.core.interfaces import (
    Environment,
    LeaderOracle,
    Message,
    Process,
    TimerHandle,
)
from repro.core.messages import Alive, Suspicion
from repro.core.omega_base import ALIVE_TIMER, ROUND_TIMER, RotatingStarOmegaBase
from repro.core.state import RoundRecords, SuspicionLevels, lexicographic_min

__all__ = [
    "ALIVE_TIMER",
    "Alive",
    "Environment",
    "Figure1Omega",
    "Figure2Omega",
    "Figure3Omega",
    "FgOmega",
    "LeaderOracle",
    "Message",
    "OmegaConfig",
    "Process",
    "ROUND_TIMER",
    "RotatingStarOmegaBase",
    "RoundRecords",
    "Suspicion",
    "SuspicionLevels",
    "TimeoutFunction",
    "TimerHandle",
    "WindowFunction",
    "lexicographic_min",
    "unwrap_round_number",
    "unwrap_tag",
]

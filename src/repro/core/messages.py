"""Protocol messages of the paper's algorithms.

The paper uses exactly two message types:

* ``ALIVE(rn, susp_level)`` — broadcast regularly by every process; ``rn`` is the
  sending round number and ``susp_level`` the sender's current suspicion-level array
  (gossiped so that all processes converge on the entries that stop increasing).
* ``SUSPICION(rn, suspects)`` — broadcast when a process finishes its receiving round
  ``rn``; ``suspects`` contains the identities of the processes from which no
  ``ALIVE(rn)`` message was counted for that round.

Both are immutable.  ``susp_level`` is stored as a tuple so a message cannot alias a
sender's mutable state, and ``suspects`` as a ``frozenset``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from repro.core.interfaces import Message


@dataclasses.dataclass(frozen=True)
class Alive(Message):
    """The ``ALIVE(rn, susp_level)`` message of Figures 1-3.

    Attributes
    ----------
    rn:
        Sending round number (the only unbounded quantity of the algorithm).
    susp_level:
        Snapshot of the sender's suspicion-level array, indexed by process id.
    """

    rn: int
    susp_level: Tuple[Tuple[int, int], ...]

    # A class attribute shadows the base-class ``tag`` property: the hot
    # accounting path gets the interned constant without a property call.
    tag = "ALIVE"

    @staticmethod
    def make(rn: int, susp_level: Mapping[int, int]) -> "Alive":
        """Build an ``ALIVE`` message from a mutable suspicion-level mapping."""
        return Alive(rn=rn, susp_level=tuple(sorted(susp_level.items())))

    def susp_level_dict(self) -> Dict[int, int]:
        """Return the carried suspicion levels as a dictionary."""
        return dict(self.susp_level)


@dataclasses.dataclass(frozen=True)
class Suspicion(Message):
    """The ``SUSPICION(rn, suspects)`` message of Figures 1-3.

    Attributes
    ----------
    rn:
        The receiving round the suspicions refer to.
    suspects:
        Identifiers of the processes suspected for round ``rn`` by the sender.
    """

    rn: int
    suspects: FrozenSet[int]

    tag = "SUSPICION"

    @staticmethod
    def make(rn: int, suspects: Iterable[int]) -> "Suspicion":
        """Build a ``SUSPICION`` message from any iterable of suspect ids."""
        return Suspicion(rn=rn, suspects=frozenset(suspects))

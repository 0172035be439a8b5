"""Message delay models.

The paper's base model ``AS_{n,t}[∅]`` places no bound on message transfer delays —
only that every message sent between non-crashed processes is eventually received.
A :class:`DelayModel` decides, per message, the transfer delay; the behavioural
assumptions of :mod:`repro.assumptions` are implemented as delay models that
constrain exactly the messages the assumption talks about (ALIVE messages of star
rounds from the centre to the points) and leave every other message unconstrained.
So a model sees exactly four values of a message — ``(sender, dest, tag,
round_number)`` — passed as plain arguments: no per-message object is built.

This module holds the interface and two unconstrained models:
:class:`ConstantDelay` (what ``ConstantDelayScenario`` builds) and
:class:`UniformDelay`.  A model may also return ``None`` to drop a message; only
the fair-lossy models of :mod:`repro.channels` do so — both models here are
loss-free, matching the paper's reliable links.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.util.rng import RandomSource
from repro.util.validation import require_non_negative


class DelayModel(abc.ABC):
    """Decides the transfer delay of each message."""

    @abc.abstractmethod
    def delay(
        self, sender: int, dest: int, tag: str, round_number: Optional[int]
    ) -> Optional[float]:
        """Return the transfer delay of one message from *sender* to *dest*.

        *tag* is the innermost protocol tag (e.g. ``"ALIVE"``, ``"SUSPICION"``)
        and *round_number* the round the message carries, if any.  A return
        value of ``None`` drops the message (lossy links only); otherwise the
        value must be >= 0.
        """

    def describe(self) -> str:
        """Human-readable one-line description (used in experiment reports)."""
        return type(self).__name__


class ConstantDelay(DelayModel):
    """Every message takes exactly *value* time units."""

    def __init__(self, value: float) -> None:
        self.value = require_non_negative(value, "value")

    def delay(
        self, sender: int, dest: int, tag: str, round_number: Optional[int]
    ) -> float:
        return self.value

    def describe(self) -> str:
        return f"constant({self.value})"


class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]``, independently per message."""

    def __init__(self, low: float, high: float, rng: RandomSource) -> None:
        require_non_negative(low, "low")
        if high < low:
            raise ValueError(f"high ({high}) must be >= low ({low})")
        self.low = low
        self.high = high
        self._rng = rng

    def delay(
        self, sender: int, dest: int, tag: str, round_number: Optional[int]
    ) -> float:
        return self._rng.uniform(self.low, self.high)

    def describe(self) -> str:
        return f"uniform[{self.low}, {self.high}]"

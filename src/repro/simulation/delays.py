"""Message delay models.

The paper's base model ``AS_{n,t}[∅]`` places no bound on message transfer delays —
only that every message sent between non-crashed processes is eventually received.
A :class:`DelayModel` decides, per message, the transfer delay; the behavioural
assumptions of :mod:`repro.assumptions` are implemented as delay models that
constrain exactly the messages the assumption talks about (ALIVE messages of star
rounds from the centre to the points) and leave every other message unconstrained.

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


class MessageContext:
    """Everything a delay model may base its decision on.

    One context is allocated per simulated message, so this is a plain
    ``__slots__`` class rather than a (frozen) dataclass — the per-field
    ``object.__setattr__`` of a frozen ``__init__`` showed up in profiles.
    Treat instances as immutable: delay models must only read them.

    Attributes
    ----------
    sender / dest:
        Link end-points.
    tag:
        Tag of the innermost protocol message (e.g. ``"ALIVE"``, ``"SUSPICION"``).
    round_number:
        The round number carried by the message, if any.
    send_time:
        Virtual time at which the message was handed to the network.
    """

    __slots__ = ("sender", "dest", "tag", "round_number", "send_time")

    def __init__(
        self,
        sender: int,
        dest: int,
        tag: str,
        round_number: Optional[int],
        send_time: float,
    ) -> None:
        self.sender = sender
        self.dest = dest
        self.tag = tag
        self.round_number = round_number
        self.send_time = send_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MessageContext(sender={self.sender}, dest={self.dest}, "
            f"tag={self.tag!r}, round_number={self.round_number}, "
            f"send_time={self.send_time})"
        )


class DelayModel(abc.ABC):
    """Decides the transfer delay of each message."""

    @abc.abstractmethod
    def delay(self, ctx: MessageContext) -> Optional[float]:
        """Return the transfer delay for the message described by *ctx*.

        A return value of ``None`` drops the message (lossy links only); otherwise
        the value must be >= 0.
        """

    def describe(self) -> str:
        """Human-readable one-line description (used in experiment reports)."""
        return type(self).__name__


class ConstantDelay(DelayModel):
    """Every message takes exactly *value* time units."""

    def __init__(self, value: float) -> None:
        self.value = require_non_negative(value, "value")

    def delay(self, ctx: MessageContext) -> float:
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

    def delay(self, ctx: MessageContext) -> float:
        return self._rng.uniform(self.low, self.high)

    def describe(self) -> str:
        return f"uniform[{self.low}, {self.high}]"

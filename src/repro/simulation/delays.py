"""Message delay models.

The paper's base model ``AS_{n,t}[∅]`` places no bound on message transfer delays —
only that every message sent between non-crashed processes is eventually received.
A :class:`DelayModel` decides, per message, the transfer delay; the behavioural
assumptions of :mod:`repro.assumptions` are implemented as delay models that
constrain exactly the messages the assumption talks about (ALIVE messages of star
rounds from the centre to the points) and leave every other message unconstrained.

A model may also return ``None`` to drop a message; only the fair-lossy models of
:mod:`repro.channels` do so — every model in this module is loss-free, matching the
paper's reliable links.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

from repro.util.rng import RandomSource
from repro.util.validation import require_non_negative, require_positive


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


class ExponentialDelay(DelayModel):
    """Exponentially distributed delays with the given *mean*, capped at *cap*.

    The cap keeps every delay finite and bounded, as required for messages that an
    assumption needs to be merely "eventually received"; it defaults to 50 times the
    mean, which is far out in the tail.
    """

    def __init__(self, mean: float, rng: RandomSource, cap: Optional[float] = None) -> None:
        self.mean = require_positive(mean, "mean")
        self.cap = cap if cap is not None else 50.0 * mean
        require_positive(self.cap, "cap")
        self._rng = rng

    def delay(self, ctx: MessageContext) -> float:
        return min(self._rng.expovariate(1.0 / self.mean), self.cap)

    def describe(self) -> str:
        return f"exponential(mean={self.mean}, cap={self.cap})"


class HeavyTailDelay(DelayModel):
    """Pareto-distributed delays: most messages fast, a few extremely slow.

    Used by the fully-asynchronous adversary scenario to stress algorithms with
    realistic long-tail behaviour while keeping every delay finite (capped).
    """

    def __init__(
        self,
        scale: float,
        shape: float,
        rng: RandomSource,
        cap: Optional[float] = None,
    ) -> None:
        self.scale = require_positive(scale, "scale")
        self.shape = require_positive(shape, "shape")
        self.cap = cap if cap is not None else 200.0 * scale
        self._rng = rng

    def delay(self, ctx: MessageContext) -> float:
        return min(self.scale * self._rng.paretovariate(self.shape), self.cap)

    def describe(self) -> str:
        return f"pareto(scale={self.scale}, shape={self.shape}, cap={self.cap})"


class PerLinkDelay(DelayModel):
    """A different delay model per directed link, with a default for the rest."""

    def __init__(
        self,
        default: DelayModel,
        overrides: Optional[Dict[Tuple[int, int], DelayModel]] = None,
    ) -> None:
        self.default = default
        self.overrides = dict(overrides or {})

    def set_link(self, sender: int, dest: int, model: DelayModel) -> None:
        """Install *model* on the directed link ``sender -> dest``."""
        self.overrides[(sender, dest)] = model

    def delay(self, ctx: MessageContext) -> Optional[float]:
        model = self.overrides.get((ctx.sender, ctx.dest), self.default)
        return model.delay(ctx)

    def describe(self) -> str:
        return f"per-link({len(self.overrides)} overrides, default={self.default.describe()})"


class PartiallySynchronousDelay(DelayModel):
    """Chaotic delays before a global stabilisation time (GST), bounded after.

    This is the classical partial-synchrony shape used by the eventual-timely-link
    baselines: before ``gst`` the *chaotic* model applies, from ``gst`` on the
    *stable* model applies (typically a small constant or narrow uniform delay).
    The switch is based on the message's send time.
    """

    def __init__(self, gst: float, chaotic: DelayModel, stable: DelayModel) -> None:
        self.gst = require_non_negative(gst, "gst")
        self.chaotic = chaotic
        self.stable = stable

    def delay(self, ctx: MessageContext) -> Optional[float]:
        model = self.stable if ctx.send_time >= self.gst else self.chaotic
        return model.delay(ctx)

    def describe(self) -> str:
        return (
            f"partially-synchronous(gst={self.gst}, chaotic={self.chaotic.describe()}, "
            f"stable={self.stable.describe()})"
        )


class TagFilteredDelay(DelayModel):
    """Apply *special* to messages whose tag matches, *default* to the others."""

    def __init__(self, tag: str, special: DelayModel, default: DelayModel) -> None:
        self.tag = tag
        self.special = special
        self.default = default

    def delay(self, ctx: MessageContext) -> Optional[float]:
        model = self.special if ctx.tag == self.tag else self.default
        return model.delay(ctx)

    def describe(self) -> str:
        return f"tag[{self.tag}]->{self.special.describe()} else {self.default.describe()}"

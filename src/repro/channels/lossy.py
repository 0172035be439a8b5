"""Fair-lossy link models.

The paper's base model assumes reliable links but notes (footnote 2, Section 7)
that fair-lossy links suffice if messages are acknowledged and retransmitted
(piggybacked) until acknowledged.  The delay models below introduce message loss on
top of any existing delay model; the :class:`~repro.channels.reliable.ReliableChannel`
process wrapper then rebuilds reliable links above them, and the integration tests
check that the Figure 3 algorithm still elects a leader over that stack.

*Fairness* (a message retransmitted for ever is eventually received) is guaranteed
either statistically (:class:`BernoulliLossModel`, loss probability < 1) or
deterministically (:class:`PeriodicLossModel`, which never drops two consecutive
transmissions of the same link).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.simulation.delays import DelayModel
from repro.util.rng import RandomSource
from repro.util.validation import require_in_range


class BernoulliLossModel(DelayModel):
    """Drop each message independently with probability *loss_probability*.

    Acknowledgement messages can be exempted (``protect_acks``) to model asymmetric
    loss; by default they are subject to the same loss.
    """

    def __init__(
        self,
        base: DelayModel,
        loss_probability: float,
        seed: int,
        protect_acks: bool = False,
    ) -> None:
        require_in_range(loss_probability, "loss_probability", 0.0, 1.0, high_inclusive=False)
        self.base = base
        self.loss_probability = loss_probability
        self.protect_acks = protect_acks
        self._rng = RandomSource(seed, label="bernoulli-loss")

    def delay(
        self, sender: int, dest: int, tag: str, round_number: Optional[int]
    ) -> Optional[float]:
        if not (self.protect_acks and tag == "ACK"):
            if self._rng.random() < self.loss_probability:
                return None
        return self.base.delay(sender, dest, tag, round_number)

    def describe(self) -> str:
        return f"bernoulli-loss(p={self.loss_probability}, base={self.base.describe()})"


class PeriodicLossModel(DelayModel):
    """Drop every *period*-th message of each directed link (deterministic fairness).

    With ``period = k``, exactly one out of every ``k`` messages of a link is lost,
    so retransmitting a message twice always gets it through — handy for
    deterministic unit tests of the reliable channel.
    """

    def __init__(self, base: DelayModel, period: int) -> None:
        if period < 2:
            raise ValueError(f"period must be >= 2, got {period}")
        self.base = base
        self.period = period
        self._counters: Dict[Tuple[int, int], int] = {}

    def delay(
        self, sender: int, dest: int, tag: str, round_number: Optional[int]
    ) -> Optional[float]:
        key = (sender, dest)
        count = self._counters.get(key, 0) + 1
        self._counters[key] = count
        if count % self.period == 0:
            return None
        return self.base.delay(sender, dest, tag, round_number)

    def describe(self) -> str:
        return f"periodic-loss(every {self.period}th, base={self.base.describe()})"

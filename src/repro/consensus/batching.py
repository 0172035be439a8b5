"""Load-adaptive batch sizing for the replicated log's leader.

The fixed ``batch_size`` knob forces one choice for every load level: small
batches waste consensus instances under bursts, large ones add latency when
the backlog is one command deep.  ``batch_size="adaptive"`` replaces the
constant with :class:`AdaptiveBatchPolicy`, a backlog-tracking limit: an
exponentially weighted moving average of the backlog the leader observes at
each proposal opportunity, clamped into ``[MIN_BATCH, MAX_BATCH]``.  Light
load degenerates to single-command proposals (latency of the unbatched path);
offered-load spikes grow the limit within one or two drive ticks, amortising
the consensus round trips over the queue that actually built up.

The policy is deliberately deterministic state (one float), so seeded runs
stay byte-identical, and each log incarnation builds its own (the EWMA is
per-leader observation history, never shared and never carried over a
crash).
"""

from __future__ import annotations

import math
from typing import Union

#: The ``batch_size`` spelling that selects :class:`AdaptiveBatchPolicy`.
ADAPTIVE = "adaptive"
#: Clamp bounds of the adaptive limit.
MIN_BATCH = 1
MAX_BATCH = 32
#: EWMA smoothing factor: reaches ~94 % of a load step within 4 observations
#: (two drive ticks at the default cadence of one proposal per tick).
ALPHA = 0.5


def require_batch_size(batch_size: Union[int, str]) -> None:
    """Raise ``ValueError`` unless *batch_size* is a positive int or ``"adaptive"``."""
    if batch_size == ADAPTIVE:
        return
    if isinstance(batch_size, bool) or not isinstance(batch_size, int) or batch_size < 1:
        raise ValueError(
            f"batch_size must be a positive int or {ADAPTIVE!r}, got {batch_size!r}"
        )


class AdaptiveBatchPolicy:
    """EWMA-of-backlog batch limit in ``[MIN_BATCH, MAX_BATCH]``."""

    def __init__(self) -> None:
        self._ewma = float(MIN_BATCH)

    def observe(self, backlog: int) -> int:
        """Fold one backlog observation in; return the current batch limit."""
        self._ewma += ALPHA * (backlog - self._ewma)
        return self.limit

    @property
    def limit(self) -> int:
        """The current batch limit, read without folding an observation in."""
        return max(MIN_BATCH, min(MAX_BATCH, math.ceil(self._ewma)))


__all__ = ["ADAPTIVE", "AdaptiveBatchPolicy", "require_batch_size"]

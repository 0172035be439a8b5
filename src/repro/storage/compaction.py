"""Compaction policy: when to snapshot and how much decided tail to retain.

A :class:`CompactionPolicy` is the small immutable knob object shared by every
replica of a service (the mechanism lives in :mod:`repro.storage.snapshot`).
Two parameters shape the steady-state memory window of a compacting replica:

``interval``
    A snapshot is captured whenever the contiguous decided prefix has grown by
    at least this many positions since the last snapshot floor.  Smaller
    intervals bound memory tighter but capture (and, with a
    :class:`~repro.storage.stable_store.WriteCostModel`, pay for) snapshots
    more often.

``retain``
    How many decided positions *below* the snapshot floor stay resident after
    truncation.  The retained tail lets ordinarily-lagging peers — every
    follower trails the leader by the decisions still in flight — catch up
    through plain :class:`~repro.consensus.messages.CatchUpReply` traffic;
    only a peer whose frontier has fallen below the truncation floor needs a
    full snapshot transfer.  ``retain`` should comfortably exceed the typical
    in-flight window (a few drive periods' worth of decisions).

Steady-state residency of the decided log is therefore
``retain .. retain + interval`` positions (plus the handful of out-of-order
decisions above the frontier), independent of how long the run has been going.
"""

from __future__ import annotations

import dataclasses

from repro.util.validation import require_non_negative, require_positive


@dataclasses.dataclass(frozen=True)
class CompactionPolicy:
    """Snapshot-and-truncate policy of one replica group.

    Attributes
    ----------
    interval:
        Capture a snapshot every time the contiguous decided prefix advanced
        by at least this many positions past the last snapshot floor.
    retain:
        Decided positions kept resident below the snapshot floor (the tail
        served to ordinarily-lagging peers without a snapshot transfer).
    """

    interval: int = 64
    retain: int = 16

    def __post_init__(self) -> None:
        require_positive(self.interval, "interval")
        require_non_negative(self.retain, "retain")

    def should_snapshot(self, frontier: int, last_floor: int) -> bool:
        """True when the prefix grew enough past *last_floor* to snapshot."""
        return frontier - last_floor >= self.interval

    def truncation_floor(self, snapshot_floor: int) -> int:
        """First position kept resident after compacting at *snapshot_floor*."""
        return max(0, snapshot_floor - self.retain)

    def describe(self) -> str:
        return f"compaction(interval={self.interval}, retain={self.retain})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompactionPolicy({self.describe()})"


__all__ = ["CompactionPolicy"]

"""Composition of the leader oracle and the replicated log into one process.

Theorem 5 of the paper is obtained by plugging the Omega construction into an
Omega-based consensus algorithm; operationally both run inside the same process and
share its links and timers.  :class:`OmegaConsensusStack` is that composition: a
:class:`~repro.core.composition.CompositeProcess` with an ``"omega"`` channel (any
of the paper's algorithms, Figure 3 by default) and a ``"log"`` channel (the
replicated log), with the log querying the co-located oracle for the current leader.
"""

from __future__ import annotations

from typing import Callable, Optional, Type, Union

from repro.consensus.batching import AdaptiveBatchPolicy
from repro.consensus.leases import LeaseManager
from repro.consensus.replicated_log import ReplicatedLog
from repro.core.composition import CompositeProcess
from repro.core.config import OmegaConfig
from repro.core.figure3 import Figure3Omega
from repro.core.interfaces import LeaderOracle
from repro.core.omega_base import RotatingStarOmegaBase

#: Channel names used by the stack.
OMEGA_CHANNEL = "omega"
LOG_CHANNEL = "log"


class OmegaConsensusStack(CompositeProcess, LeaderOracle):
    """One process running an Omega oracle and a replicated log side by side."""

    variant_name = "omega-consensus-stack"

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        omega_cls: Type[RotatingStarOmegaBase] = Figure3Omega,
        omega_config: Optional[OmegaConfig] = None,
        drive_period: float = 2.0,
        retry_period: float = 10.0,
        batch_size: Union[int, AdaptiveBatchPolicy] = 1,
        leases: Optional[LeaseManager] = None,
        on_read_index: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        omega = omega_cls(pid=pid, n=n, t=t, config=omega_config)
        log = ReplicatedLog(
            pid=pid,
            n=n,
            t=t,
            oracle=omega,
            drive_period=drive_period,
            retry_period=retry_period,
            batch_size=batch_size,
            leases=leases,
            on_read_index=on_read_index,
        )
        super().__init__({OMEGA_CHANNEL: omega, LOG_CHANNEL: log})
        #: The process's one counter registry: the oracle counts into the
        #: mapping the log already shares with its lease and snapshot managers.
        self.counters = omega.counters = log.counters
        self.pid = pid
        self.n = n
        self.t = t

    # ------------------------------------------------------------------ accessors --
    @property
    def omega(self) -> RotatingStarOmegaBase:
        """The co-located leader oracle."""
        return self.child(OMEGA_CHANNEL)  # type: ignore[return-value]

    @property
    def log(self) -> ReplicatedLog:
        """The co-located replicated log."""
        return self.child(LOG_CHANNEL)  # type: ignore[return-value]

    def leader(self) -> int:
        """Delegate to the co-located oracle (lets system helpers poll leaders)."""
        return self.omega.leader()

    def attach_storage(self, store) -> None:
        """Attach a stable store to the replicated log (rehydrating from it).

        The Omega oracle keeps no durable state — its suspicion counters are
        soft state the ALIVE exchange rebuilds — so only the log persists.
        """
        self.log.attach_storage(store)

    def submit(self, value) -> None:
        """Submit a command to the replicated log."""
        self.log.submit(value)

    def delivered(self):
        """Return the locally delivered (contiguous, de-noop-ed) values.

        With a compaction policy attached this is the retained *window*; the
        truncated prefix is summarised by ``log.delivered_total`` and the
        incremental ``log.delivered_digest()``.
        """
        return self.log.delivered()

    def decided_log(self):
        """Return the locally resident decisions (position -> value).

        The full history without compaction, the retained window with it.
        """
        return self.log.decided_log()

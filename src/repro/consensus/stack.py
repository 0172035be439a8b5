"""Composition of the leader oracle and the replicated log into one process.

Theorem 5 of the paper is obtained by plugging the Omega construction into an
Omega-based consensus algorithm; operationally both run inside the same process and
share its links and timers.  :class:`OmegaConsensusStack` is that composition: a
:class:`~repro.core.composition.CompositeProcess` with an ``"omega"`` channel (any
of the paper's algorithms, Figure 3 by default) and a ``"log"`` channel (the
replicated log), with the log querying the co-located oracle for the current leader.

The frontier header
-------------------
The oracle's ``ALIVE`` already reaches every peer from every process once per
period, so the stack lets it carry one more field: every outgoing ``ALIVE``
leaves in a :class:`~repro.consensus.messages.FrontierAdvert` holding the
log's decided frontier instead of the plain omega-channel envelope.  On
receipt the stack hands ``(sender, frontier)`` to the log
(:meth:`~repro.consensus.replicated_log.ReplicatedLog.heard_frontier`) and the
bare ``ALIVE`` to the oracle.  Omega's messages, state and delays are
untouched — the innermost tag and round number are the same — and the log
polls a peer for missed decisions only when a header proved that peer ahead
("The catch-up protocol" in :mod:`repro.consensus.replicated_log`).
"""

from __future__ import annotations

from typing import Callable, Optional, Type, Union

from repro.consensus.batching import AdaptiveBatchPolicy
from repro.consensus.leases import LeaseManager
from repro.consensus.messages import FrontierAdvert
from repro.consensus.replicated_log import ReplicatedLog
from repro.core.composition import ChannelEnvironment, CompositeProcess
from repro.core.config import OmegaConfig
from repro.core.figure3 import Figure3Omega
from repro.core.interfaces import Environment, LeaderOracle, Message
from repro.core.messages import Alive
from repro.core.omega_base import RotatingStarOmegaBase

#: Channel names used by the stack.
OMEGA_CHANNEL = "omega"
LOG_CHANNEL = "log"


class _AdvertisingEnvironment(ChannelEnvironment):
    """The oracle's environment: an ``ALIVE`` leaves with the log's frontier."""

    def __init__(self, outer: Environment, log: ReplicatedLog) -> None:
        super().__init__(OMEGA_CHANNEL, outer)
        self._log = log

    def broadcast(self, message: Message, include_self: bool = False) -> None:
        if isinstance(message, Alive):
            self._outer.broadcast(
                FrontierAdvert(
                    channel=OMEGA_CHANNEL, inner=message, frontier=self._log.frontier
                ),
                include_self,
            )
        else:
            super().broadcast(message, include_self)


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
        # Direct references for the per-ALIVE path (no channel lookup).
        self._omega = omega
        self._log = log
        #: The process's one counter registry: the oracle counts into the
        #: mapping the log already shares with its lease and snapshot managers.
        self.counters = omega.counters = log.counters
        self.pid = pid
        self.n = n
        self.t = t

    # ------------------------------------------------------------------ lifecycle --
    def _channel_environment(self, name: str, env: Environment) -> ChannelEnvironment:
        if name == OMEGA_CHANNEL:
            return _AdvertisingEnvironment(env, self._log)
        return super()._channel_environment(name, env)

    def on_message(self, env: Environment, sender: int, message: Message) -> None:
        if isinstance(message, FrontierAdvert):
            # The header is the log's; the oracle sees the bare ALIVE.
            self._log.heard_frontier(env.now, sender, message.frontier)
            self._omega.on_message(
                self._environment_for(OMEGA_CHANNEL, env), sender, message.inner
            )
            return
        super().on_message(env, sender, message)

    # ------------------------------------------------------------------ accessors --
    @property
    def omega(self) -> RotatingStarOmegaBase:
        """The co-located leader oracle."""
        return self._omega

    @property
    def log(self) -> ReplicatedLog:
        """The co-located replicated log."""
        return self._log

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

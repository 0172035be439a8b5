"""The leader oracle and the replicated log in one process.

Theorem 5 of the paper is obtained by plugging the Omega construction into an
Omega-based consensus algorithm; operationally both run inside the same process and
share its links and timers.  :class:`OmegaConsensusStack` is that process: it holds
an oracle (any of the paper's algorithms, Figure 3 by default) and a replicated log
as attributes, the log querying the oracle for the current leader, and routes every
event to one of them:

* a delivered ``ALIVE`` / ``SUSPICION`` goes to the oracle, everything else to the
  log, whose own dispatcher raises on a class it does not know;
* the log's :data:`~repro.consensus.replicated_log.DRIVE_TIMER` goes to the log,
  every other timer to the oracle, which raises on a name it does not know (the two
  sets of names are disjoint);
* start, crash and stop reach the oracle first, then the log.  Timers are numbered
  in the order they are armed, so executions depend on this order.

The frontier header
-------------------
The oracle's ``ALIVE`` already reaches every peer from every process once per
period, so the stack lets it carry one more field: every outgoing ``ALIVE``
leaves in a :class:`~repro.consensus.messages.FrontierAdvert` holding the log's
decided frontier.  On receipt the stack hands ``(sender, frontier)`` to the log
(:meth:`~repro.consensus.replicated_log.ReplicatedLog.heard_frontier`) and the
bare ``ALIVE`` to the oracle.  Omega's messages, state and delays are
untouched — the network reads the tag and round number of the inner ``ALIVE`` —
and the log polls a peer for missed decisions only when a header proved that
peer ahead ("The catch-up protocol" in :mod:`repro.consensus.replicated_log`).
Every other message, the oracle's ``SUSPICION`` included, travels bare.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Type, Union

from repro.consensus.batching import AdaptiveBatchPolicy
from repro.consensus.leases import LeaseManager
from repro.consensus.messages import FrontierAdvert
from repro.consensus.replicated_log import DRIVE_TIMER, ReplicatedLog
from repro.core.config import OmegaConfig
from repro.core.figure3 import Figure3Omega
from repro.core.interfaces import Environment, LeaderOracle, Message, Process, TimerHandle
from repro.core.messages import Alive, Suspicion
from repro.core.omega_base import RotatingStarOmegaBase
from repro.util.rng import RandomSource


class _AdvertisingEnvironment(Environment):
    """The oracle's environment: the process's own, except that an ``ALIVE``
    broadcast leaves in a :class:`FrontierAdvert` with the log's frontier."""

    def __init__(self, outer: Environment, log: ReplicatedLog) -> None:
        self.outer = outer
        self._log = log

    @property
    def pid(self) -> int:
        return self.outer.pid

    @property
    def process_ids(self) -> Sequence[int]:
        return self.outer.process_ids

    @property
    def now(self) -> float:
        return self.outer.now

    @property
    def random(self) -> RandomSource:
        return self.outer.random

    def send(self, dest: int, message: Message) -> None:
        self.outer.send(dest, message)

    def broadcast(self, message: Message, include_self: bool = False) -> None:
        if isinstance(message, Alive):
            message = FrontierAdvert(inner=message, frontier=self._log.frontier)
        self.outer.broadcast(message, include_self)

    def set_timer(self, delay: float, name: str, payload: Any = None) -> TimerHandle:
        return self.outer.set_timer(delay, name, payload)

    def cancel_timer(self, handle: TimerHandle) -> None:
        self.outer.cancel_timer(handle)

    def log(self, kind: str, **details: Any) -> None:
        self.outer.log(kind, **details)


class OmegaConsensusStack(Process, LeaderOracle):
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
        #: The co-located leader oracle.
        self.omega: RotatingStarOmegaBase = omega_cls(
            pid=pid, n=n, t=t, config=omega_config
        )
        #: The co-located replicated log.
        self.log = ReplicatedLog(
            pid=pid,
            n=n,
            t=t,
            oracle=self.omega,
            drive_period=drive_period,
            retry_period=retry_period,
            batch_size=batch_size,
            leases=leases,
            on_read_index=on_read_index,
        )
        #: The process's one counter registry: the oracle counts into the
        #: mapping the log already shares with its lease and snapshot managers.
        self.counters = self.omega.counters = self.log.counters
        self.pid = pid
        self.n = n
        self.t = t
        self._oracle_env: Optional[_AdvertisingEnvironment] = None

    def _oracle_environment(self, env: Environment) -> _AdvertisingEnvironment:
        """The oracle's view of *env*, built once per outer environment."""
        oracle_env = self._oracle_env
        if oracle_env is None or oracle_env.outer is not env:
            oracle_env = self._oracle_env = _AdvertisingEnvironment(env, self.log)
        return oracle_env

    # ------------------------------------------------------------------ lifecycle --
    def on_start(self, env: Environment) -> None:
        self.omega.on_start(self._oracle_environment(env))
        self.log.on_start(env)

    def on_message(self, env: Environment, sender: int, message: Message) -> None:
        if isinstance(message, FrontierAdvert):
            # The header is the log's; the oracle sees the bare ALIVE.
            self.log.heard_frontier(env.now, sender, message.frontier)
            self.omega.on_message(self._oracle_environment(env), sender, message.inner)
        elif isinstance(message, (Alive, Suspicion)):
            self.omega.on_message(self._oracle_environment(env), sender, message)
        else:
            self.log.on_message(env, sender, message)

    def on_timer(self, env: Environment, timer: TimerHandle) -> None:
        if timer.name == DRIVE_TIMER:
            self.log.on_timer(env, timer)
        else:
            self.omega.on_timer(self._oracle_environment(env), timer)

    def on_crash(self, env: Environment) -> None:
        self.omega.on_crash(self._oracle_environment(env))
        self.log.on_crash(env)

    def on_stop(self, env: Environment) -> None:
        self.omega.on_stop(self._oracle_environment(env))
        self.log.on_stop(env)

    # ------------------------------------------------------------------ accessors --
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

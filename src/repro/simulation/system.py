"""Assembly of a complete simulated system ``AS_{n,t}``.

A :class:`System` wires together the scheduler, the network (with a delay model that
typically comes from a :class:`~repro.assumptions.base.Scenario`), one
:class:`~repro.simulation.process.SimProcessShell` per process, and a fault plan
(crashes, recoveries, partitions, link faults — see
:mod:`repro.simulation.faults`; no plan means a fault-free run).  It is the
object every test, example and benchmark drives:

>>> system = System(SystemConfig(n=5, t=2, seed=7), factory, delay_model)
>>> system.run_until(500.0)
>>> system.leaders()
{0: 0, 1: 0, 2: 0, 3: 0, 4: 0}
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.interfaces import Process
from repro.simulation.delays import DelayModel
from repro.simulation.faults import FaultInjector, FaultPlan, LinkState
from repro.simulation.network import Network, NetworkStats
from repro.simulation.process import SimProcessShell
from repro.simulation.scheduler import EventScheduler
from repro.util.rng import RandomSource
from repro.util.validation import require_non_negative, validate_process_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.storage.stable_store import StableStorage

#: Factory building the algorithm object of process ``pid``.
ProcessFactory = Callable[[int], Process]


@dataclasses.dataclass
class SystemConfig:
    """Static parameters of a simulated system; every process starts at time 0.

    Attributes
    ----------
    n:
        Number of processes (ids ``0 .. n-1``).
    t:
        Maximum number of crashes tolerated (used for validation and by factories).
    seed:
        Master seed; every random choice of the run derives from it.
    """

    n: int
    t: int
    seed: int = 0

    def __post_init__(self) -> None:
        validate_process_count(self.n, self.t)


class System:
    """A fully wired simulated distributed system."""

    def __init__(
        self,
        config: SystemConfig,
        process_factory: ProcessFactory,
        delay_model: DelayModel,
        tracer: Optional[object] = None,
        scheduler: Optional[EventScheduler] = None,
        fault_plan: Optional[FaultPlan] = None,
        storage: Optional["StableStorage"] = None,
    ) -> None:
        self.config = config
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.none()
        self.fault_plan.validate(config.n, config.t)
        #: Optional stable storage; when set, each algorithm is attached to its
        #: process's durable store at boot and rehydrated from it at recovery.
        self.storage = storage
        self.tracer = tracer

        # An externally supplied scheduler lets several independent systems (e.g.
        # the shard groups of a :class:`repro.service.sharding.ShardedService`)
        # share one virtual clock; each system still owns its network and shells.
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        self.network = Network(self.scheduler, delay_model, tracer=tracer)
        self._master_rng = RandomSource(config.seed, label="system")
        self._process_factory = process_factory

        process_ids = list(range(config.n))
        # The correct set is derived from the fault plan; since the plan can
        # gain events at run time (injector.inject) and a recovery replaces an
        # algorithm, its one cache is keyed by a fault epoch rather than
        # computed once — see correct_algorithms().
        self._fault_epoch = 0
        self._correct_epoch = -1
        self._correct_shells: List[SimProcessShell] = []
        self._correct_algorithms: List[Process] = []
        self.shells: List[SimProcessShell] = []
        for pid in process_ids:
            algorithm = process_factory(pid)
            shell = SimProcessShell(
                pid=pid,
                algorithm=algorithm,
                scheduler=self.scheduler,
                network=self.network,
                process_ids=process_ids,
                rng=self._master_rng.child("process", pid),
                tracer=tracer,
            )
            self.shells.append(shell)
            if storage is not None:
                self._attach_storage(shell, algorithm)

        for shell in self.shells:
            self.scheduler.schedule_at(0.0, shell.start)

        self.injector = FaultInjector(self, self.fault_plan)
        self.injector.schedule_plan()

    # ------------------------------------------------------------------ execution --
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.scheduler.now

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Advance the simulation to absolute virtual *time*."""
        return self.scheduler.run_until(time, max_events=max_events)

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Advance the simulation by *duration* time units."""
        require_non_negative(duration, "duration")
        return self.scheduler.run_until(self.now + duration, max_events=max_events)

    def finish(self) -> None:
        """Notify every still-alive process that the run is over."""
        for shell in self.shells:
            shell.stop()

    # ------------------------------------------------------------------ faults --
    @property
    def fault_epoch(self) -> int:
        """Monotone counter bumped whenever a cached correct-set view can change:
        an event is injected at run time (the planned correct set changed) or a
        recovery is applied (the shell holds a new algorithm object).  A crash
        or a topology event changes neither, so it leaves the epoch alone.
        The one cache of the correct set (:meth:`correct_shells`,
        :meth:`correct_algorithms`, and through them
        ``ShardedService.correct_replicas``) is keyed on it."""
        return self._fault_epoch

    @property
    def link_state(self) -> Optional[LinkState]:
        """The live link-state matrix, or ``None`` when the topology is healthy
        (no partition / link-fault event in the plan)."""
        return self.injector.link_state

    def inject_fault(self, event) -> None:
        """Inject a :class:`~repro.simulation.faults.FaultEvent` at run time."""
        self.injector.inject(event)

    def _bump_fault_epoch(self) -> None:
        self._fault_epoch += 1

    def _attach_storage(self, shell: SimProcessShell, algorithm: Process) -> None:
        """Wire *algorithm* to its process's durable store (boot and recovery).

        The store outlives incarnations (it belongs to :attr:`storage`, not to
        the algorithm), its write-cost charging is bound to the shell, and the
        algorithm rehydrates inside ``attach_storage`` — empty at boot, the
        dead incarnation's durable state at recovery.
        """
        attach = getattr(algorithm, "attach_storage", None)
        if attach is None:
            raise TypeError(
                f"storage= requires algorithms exposing attach_storage(); "
                f"{type(algorithm).__name__} does not"
            )
        store = self.storage.store_for(shell.pid)
        store.bind_charge(shell.charge_storage_write)
        attach(store)

    def _apply_crash(self, pid: int) -> None:
        """Crash *pid* (called by the fault injector)."""
        self.shells[pid].crash()

    def _apply_recover(self, pid: int) -> bool:
        """Recover *pid* with a newly built algorithm (called by the injector).

        The new incarnation starts from the algorithm's initial state — or,
        when the system runs with stable storage, rehydrated from the process's
        durable store before it takes its first step.  Every cached view
        holding the old algorithm object (e.g. a sharded service's
        ``correct_replicas``) is invalidated through the fault epoch.

        Returns ``False`` (leaving the system untouched) when *pid* is not
        crashed; the injector records that as a rejected event rather than
        counting it as applied.
        """
        shell = self.shells[pid]
        if not shell.crashed:
            return False
        algorithm = self._process_factory(pid)
        if self.storage is not None:
            self._attach_storage(shell, algorithm)
        shell.recover(algorithm)
        self._fault_epoch += 1
        return True

    # ------------------------------------------------------------------ accessors --
    def shell(self, pid: int) -> SimProcessShell:
        """Return the shell of process *pid*."""
        return self.shells[pid]

    def alive_shells(self) -> List[SimProcessShell]:
        """Return the shells of the processes that have not crashed yet."""
        return [shell for shell in self.shells if not shell.crashed]

    def correct_shells(self) -> List[SimProcessShell]:
        """Return the shells of the processes that are *correct* under the plan.

        Correct means eventually up: the process either never crashes or its
        last crash is followed by a recovery — for pure crash-stop plans this is
        exactly "never crashes", as before.  The result is cached per fault
        epoch, **not** computed once: a run-time ``inject_fault`` changes the
        planned correct set, and the cache is refreshed on the next read after
        it.  The returned list must not be mutated by callers.
        """
        if self._correct_epoch != self._fault_epoch:
            correct = set(self.fault_plan.correct_ids(self.config.n))
            self._correct_shells = [shell for shell in self.shells if shell.pid in correct]
            self._correct_algorithms = [shell.algorithm for shell in self._correct_shells]
            self._correct_epoch = self._fault_epoch
        return self._correct_shells

    def correct_algorithms(self) -> List[Process]:
        """The algorithm objects of :meth:`correct_shells`, from the same
        cache: a recovery bumps the fault epoch, so a dead incarnation's
        object is never handed out.  Callers must not mutate the list."""
        if self._correct_epoch != self._fault_epoch:
            self.correct_shells()
        return self._correct_algorithms

    def correct_ids(self) -> List[int]:
        """Return the ids of the processes that are eventually up under the plan."""
        return self.fault_plan.correct_ids(self.config.n)

    def algorithms(self) -> Dict[int, Process]:
        """Return a mapping pid -> algorithm object."""
        return {shell.pid: shell.algorithm for shell in self.shells}

    def leaders(self, only_alive: bool = True) -> Dict[int, int]:
        """Return the current ``leader()`` output of each (alive) oracle process.

        Processes whose algorithm does not implement
        :class:`~repro.core.interfaces.LeaderOracle` are skipped (see
        :meth:`agreed_leader` for where each answer comes from).
        """
        shells: Sequence[SimProcessShell] = (
            self.alive_shells() if only_alive else self.shells
        )
        return {
            shell.pid: shell.leader_lookup()
            for shell in shells
            if shell.leader_lookup is not None
        }

    def agreed_leader(self) -> Optional[int]:
        """Return the leader every alive oracle process currently agrees on.

        ``None`` when the alive processes disagree (or there is no oracle process).
        Each process answers through its shell's
        :attr:`~repro.simulation.process.SimProcessShell.leader_lookup`: the
        ``leader()`` callable the shell resolved once for its current
        incarnation (``None`` for an algorithm that is not a
        :class:`~repro.core.interfaces.LeaderOracle`), so a lease-read leader
        hint pays no type check per process.
        """
        agreed: Optional[int] = None
        seen = False
        for shell in self.shells:
            lookup = shell.leader_lookup
            if shell.crashed or lookup is None:
                continue
            leader = lookup()
            if not seen:
                agreed, seen = leader, True
            elif leader != agreed:
                return None
        return agreed

    @property
    def stats(self) -> NetworkStats:
        """Network-level message accounting."""
        return self.network.stats

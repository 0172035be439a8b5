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

from repro.core.interfaces import LeaderOracle, Process
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
    """Static parameters of a simulated system.

    Attributes
    ----------
    n:
        Number of processes (ids ``0 .. n-1``).
    t:
        Maximum number of crashes tolerated (used for validation and by factories).
    seed:
        Master seed; every random choice of the run derives from it.
    start_jitter:
        Processes start at independent uniformly random times in
        ``[0, start_jitter]``, modelling unsynchronised boots.  0 starts everyone at
        time 0 (still deterministic).
    """

    n: int
    t: int
    seed: int = 0
    start_jitter: float = 0.0

    def __post_init__(self) -> None:
        validate_process_count(self.n, self.t)
        require_non_negative(self.start_jitter, "start_jitter")


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
        # The correct-shell set is derived from the fault plan; since the plan can
        # gain events at run time (Recover, injector.inject) the cache is keyed by
        # a fault epoch rather than computed once — see correct_shells().
        self._fault_epoch = 0
        self._correct_shells_cache: Optional[List[SimProcessShell]] = None
        self._correct_cache_epoch = -1
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

        start_rng = self._master_rng.child("start-jitter")
        for shell in self.shells:
            offset = (
                start_rng.uniform(0.0, config.start_jitter)
                if config.start_jitter
                else 0.0
            )
            self.scheduler.schedule_at(offset, shell.start)

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
        """Monotone counter bumped whenever the fault state of the system changes:
        a crash or recovery is applied, a topology event (partition, link fault,
        slowdown) starts or heals — including ``until``-window auto-heals — or an
        event is injected at run time.  Cached views derived from the correct set
        or the topology key themselves on it."""
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
        self._fault_epoch += 1

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
        epoch, **not** computed once: a :class:`~repro.simulation.faults.Recover`
        event or a run-time ``inject_fault`` changes the correct set, and the
        cache is refreshed on the next read after any such change.  The returned
        list must not be mutated by callers.
        """
        epoch = self._fault_epoch
        if self._correct_cache_epoch != epoch:
            correct = set(self.fault_plan.correct_ids(self.config.n))
            self._correct_shells_cache = [
                shell for shell in self.shells if shell.pid in correct
            ]
            self._correct_cache_epoch = epoch
        return self._correct_shells_cache

    def correct_ids(self) -> List[int]:
        """Return the ids of the processes that are eventually up under the plan."""
        return self.fault_plan.correct_ids(self.config.n)

    def algorithms(self) -> Dict[int, Process]:
        """Return a mapping pid -> algorithm object."""
        return {shell.pid: shell.algorithm for shell in self.shells}

    def leaders(self, only_alive: bool = True) -> Dict[int, int]:
        """Return the current ``leader()`` output of each (alive) oracle process.

        Processes whose algorithm does not implement
        :class:`~repro.core.interfaces.LeaderOracle` are skipped.
        """
        shells: Sequence[SimProcessShell] = (
            self.alive_shells() if only_alive else self.shells
        )
        return {
            shell.pid: shell.algorithm.leader()
            for shell in shells
            if isinstance(shell.algorithm, LeaderOracle)
        }

    def agreed_leader(self) -> Optional[int]:
        """Return the leader every alive oracle process currently agrees on.

        ``None`` when the alive processes disagree (or there is no oracle process).
        """
        agreed: Optional[int] = None
        seen = False
        for shell in self.shells:
            algorithm = shell.algorithm
            if shell.crashed or not isinstance(algorithm, LeaderOracle):
                continue
            leader = algorithm.leader()
            if not seen:
                agreed, seen = leader, True
            elif leader != agreed:
                return None
        return agreed

    @property
    def stats(self) -> NetworkStats:
        """Network-level message accounting."""
        return self.network.stats

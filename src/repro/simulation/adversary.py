"""Adaptive adversaries: fault drivers that react to the execution.

A :class:`~repro.simulation.faults.FaultPlan` is *oblivious* — its events are
fixed before the run starts.  An :class:`Adversary` closes the loop: it is a
driver hooked into the scheduler that wakes up on a fixed decision tick,
**observes** the execution (the leaders currently elected per reachable
component via the analysis metrics, the live :class:`~repro.simulation.faults.
LinkState`, network traffic, the remaining ``AS_{n,t}`` crash budget) and
**acts** by issuing :meth:`~repro.simulation.system.System.inject_fault` calls.
Every injection goes through the fault injector's full plan revalidation, so an
adversary is *budget-bound by construction*: it can never hold more than ``t``
processes down concurrently, crash a process twice, or recover an up process —
over-ambitious actions raise, are counted in :attr:`Adversary.rejections` and
leave no trace in the plan.

This is the classic adaptive adversary of the distributed-computing literature,
restricted to the fault vocabulary of ``AS_{n,t}`` (plus the corruption
extension): it schedules faults *as a function of the execution so far*, which
is strictly stronger than any oblivious plan — e.g. :class:`LeaderHunter`
always takes down whoever was just elected, the exact pattern that separates
eventually-stable leader election from lucky runs.

Shipped adversaries:

* :class:`LeaderHunter` — crashes (and later recovers) or partitions away the
  leader each reachable component currently agrees on;
* :class:`ChurnAdversary` — rolling restarts aimed at the *busiest* target
  (most messages delivered since the previous tick), modelling operators who
  always manage to reboot the hot shard;
* :class:`RandomAdversary` — a seeded baseline drawing random (still validated)
  faults, including :class:`~repro.simulation.faults.CorruptLink` payload
  corruption.

Determinism: a tick is an ordinary scheduler event, observations read
deterministic simulation state, and any randomness comes from the adversary's
own labelled :class:`~repro.util.rng.RandomSource` — so a seeded run with an
adversary is exactly as replayable as one with a static plan.

An adversary drives either a single :class:`~repro.simulation.system.System`
or a whole :class:`~repro.service.sharding.ShardedService` (pass it as
``ShardedService(adversary=...)``, which also enables the crash-recovery round
resynchronisation the injected recoveries need).  Import from
``repro.simulation.adversary`` directly — the module sits above the analysis
layer and is deliberately not re-exported by :mod:`repro.simulation`.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import component_agreed_leaders
from repro.simulation.faults import (
    CorruptLink,
    Crash,
    FaultEvent,
    LinkFault,
    PartitionHeal,
    PartitionStart,
    Recover,
)
from repro.simulation.system import System
from repro.util.rng import RandomSource, derive_seed
from repro.util.validation import require_positive


@dataclasses.dataclass(frozen=True)
class AdversaryAction:
    """One fault an adversary successfully injected (for reports and demos)."""

    time: float
    #: Index of the attacked system (the shard index under a sharded service).
    system: int
    #: ``FaultEvent.describe()`` of the injected event.
    event: str

    def describe(self) -> str:
        return f"t={self.time:g} sys{self.system}: {self.event}"


class Adversary(abc.ABC):
    """Base class of the adaptive fault drivers.

    Parameters
    ----------
    period:
        Virtual time between two decision ticks.
    start:
        Time of the first tick (defaults to one period in, so the systems get
        to boot before the adversary observes anything).
    stop:
        Optional time after which the adversary stays quiet (no further ticks
        are scheduled).  Demos and convergence tests use this to bound the
        attack window so the system can stabilise afterwards.
    protect:
        Process ids the adversary never targets (e.g. a scenario's star centre
        when the attack should stay assumption-preserving even transiently).

    Subclasses implement :meth:`decide`, observing through the helpers
    (:meth:`systems`, :meth:`down_count`, :meth:`budget_remaining`) and the
    analysis metrics, and acting through :meth:`inject` — never by mutating a
    system directly.
    """

    name = "adversary"

    def __init__(
        self,
        period: float = 10.0,
        start: Optional[float] = None,
        stop: Optional[float] = None,
        protect: Sequence[int] = (),
    ) -> None:
        require_positive(period, "period")
        self.period = period
        self.start = period if start is None else start
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if stop is not None and stop <= self.start:
            raise ValueError(f"stop={stop} must be after start={self.start}")
        self.stop = stop
        self.protect = frozenset(int(pid) for pid in protect)
        #: Successfully injected faults, in injection order.
        self.actions: List[AdversaryAction] = []
        #: Injections refused by plan validation (budget, double crash, ...).
        self.rejections = 0
        #: Number of decision ticks taken.
        self.ticks = 0
        self._systems: List[System] = []
        self._scheduler = None

    # ------------------------------------------------------------------ wiring --
    @property
    def installed(self) -> bool:
        """True once the adversary is attached to a target."""
        return self._scheduler is not None

    def install(self, target) -> "Adversary":
        """Attach to *target* (a ``System`` or a ``ShardedService``) and arm
        the first decision tick on its scheduler.  Returns ``self``.
        """
        if self.installed:
            raise RuntimeError(f"{self.name} adversary is already installed")
        systems = getattr(target, "systems", None)
        self._systems = list(systems) if systems is not None else [target]
        if not self._systems:
            raise ValueError("adversary target has no systems")
        self._scheduler = target.scheduler
        self._scheduler.schedule_at(
            max(self.start, self._scheduler.now), self._tick
        )
        return self

    # ------------------------------------------------------------------ observation --
    def systems(self) -> List[System]:
        """The systems under attack (one per shard under a sharded service)."""
        return list(self._systems)

    @staticmethod
    def down_count(system: System) -> int:
        """Processes of *system* currently crashed."""
        return sum(1 for shell in system.shells if shell.crashed)

    @classmethod
    def budget_remaining(cls, system: System) -> int:
        """Crashes *system* can still absorb right now without exceeding ``t``."""
        return system.config.t - cls.down_count(system)

    # ------------------------------------------------------------------ action --
    def inject(self, index: int, event: FaultEvent) -> bool:
        """Inject *event* into system *index*; False when validation refused it.

        This is the only way an adversary acts.  The fault injector revalidates
        the whole plan (crash budget, pid ranges, no double crash / spurious
        recovery), so a refused event changes nothing — it is merely counted.
        """
        system = self._systems[index]
        try:
            system.inject_fault(event)
        except ValueError:
            self.rejections += 1
            return False
        self.actions.append(
            AdversaryAction(time=event.time, system=index, event=event.describe())
        )
        return True

    # ------------------------------------------------------------------ ticking --
    def _tick(self) -> None:
        now = self._scheduler.now
        if self.stop is not None and now >= self.stop:
            return
        self.ticks += 1
        self.decide(now)
        self._scheduler.schedule_after(self.period, self._tick)

    @abc.abstractmethod
    def decide(self, now: float) -> None:
        """Observe the execution and inject this tick's faults (if any)."""

    def describe(self) -> str:
        """One-line summary for reports and demos."""
        return (
            f"{self.name}(ticks={self.ticks}, actions={len(self.actions)}, "
            f"rejected={self.rejections})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"


class LeaderHunter(Adversary):
    """Takes down whoever is currently elected, as soon as it is elected.

    Each tick, for every system, the hunter reads the leader each reachable
    component currently agrees on (the partition-aware election metric) and
    attacks the first attackable one:

    * ``mode="crash"`` — crash the leader now and recover it ``downtime``
      later.  The recovery keeps the victim *eventually up*, so the attack is
      assumption-preserving (transient faults never violate an eventual
      assumption) and the digests of all replicas must still converge once the
      hunter stops.
    * ``mode="partition"`` — isolate the leader in a singleton partition and
      heal it ``downtime`` later (a new partition replaces the previous one).

    The ``≤ t`` concurrently-down budget is enforced by injection validation:
    with the budget exhausted the crash is refused and the hunter waits for a
    victim to recover — the property-based tests check that no execution ever
    sees more than ``t`` processes down, no matter how aggressive the tick
    period.
    """

    name = "leader-hunter"

    def __init__(self, mode: str = "crash", downtime: float = 12.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if mode not in ("crash", "partition"):
            raise ValueError(f"unknown LeaderHunter mode {mode!r}")
        require_positive(downtime, "downtime")
        self.mode = mode
        self.downtime = downtime

    def decide(self, now: float) -> None:
        for index, system in enumerate(self._systems):
            for leader in component_agreed_leaders(system):
                if leader is None or leader in self.protect:
                    continue
                if system.shells[leader].crashed:
                    continue
                if self._attack(index, system, leader, now):
                    break  # one victim per system per tick

    def _attack(self, index: int, system: System, leader: int, now: float) -> bool:
        if self.mode == "crash":
            if self.budget_remaining(system) <= 0:
                return False
            if not self.inject(index, Crash(time=now, pid=leader)):
                return False
            # Always give the victim back: an eventually-up victim keeps the
            # scenario assumption intact and the convergence obligation alive.
            self.inject(index, Recover(time=now + self.downtime, pid=leader))
            return True
        link_state = system.link_state
        if link_state is not None and link_state.partitioned:
            # One partition at a time: a new PartitionStart would replace the
            # current one and the pending heal would then end it early.
            return False
        if not self.inject(
            index, PartitionStart(time=now, groups=((leader,),))
        ):
            return False
        self.inject(index, PartitionHeal(time=now + self.downtime))
        return True


class ChurnAdversary(Adversary):
    """Rolling restarts aimed at the busiest target.

    Each tick the adversary measures, per system, how many messages were
    delivered since its previous tick (``NetworkStats.total_delivered`` — under
    a sharded service that is per-shard traffic) and restarts one replica of
    the busiest one: crash now, recover ``downtime`` later, rotating through
    the replicas so successive ticks hit different processes.  It models the
    operational pattern where maintenance always lands on the hot shard.
    """

    name = "churn"

    def __init__(self, downtime: float = 10.0, **kwargs) -> None:
        super().__init__(**kwargs)
        require_positive(downtime, "downtime")
        self.downtime = downtime
        self._delivered_before: Dict[int, int] = {}
        self._rotation: Dict[int, int] = {}

    def busiest_system(self) -> int:
        """Index of the system with the most deliveries since the last tick."""
        deltas: List[Tuple[int, int]] = []
        for index, system in enumerate(self._systems):
            delivered = system.stats.total_delivered
            deltas.append((delivered - self._delivered_before.get(index, 0), index))
            self._delivered_before[index] = delivered
        # Highest delta wins; ties break towards the lowest index.
        best_delta, best_index = max(deltas, key=lambda pair: (pair[0], -pair[1]))
        return best_index

    def decide(self, now: float) -> None:
        index = self.busiest_system()
        system = self._systems[index]
        if self.budget_remaining(system) <= 0:
            return
        n = system.config.n
        cursor = self._rotation.get(index, 0)
        for offset in range(n):
            pid = (cursor + offset) % n
            if pid in self.protect or system.shells[pid].crashed:
                continue
            if self.inject(index, Crash(time=now, pid=pid)):
                self.inject(index, Recover(time=now + self.downtime, pid=pid))
                self._rotation[index] = pid + 1
                return


class RandomAdversary(Adversary):
    """A seeded baseline drawing random faults from the full vocabulary.

    Each tick, for each system, one action is drawn: a crash-with-recovery, a
    short singleton partition, a transient lossy link, a transient corrupting
    link, or nothing.  All weights are constructor parameters; all randomness
    comes from a dedicated labelled stream, so runs replay exactly from the
    seed.  Useful as fuzzing pressure and as the control against which the
    targeted adversaries are compared.
    """

    name = "random"

    def __init__(
        self,
        seed: int = 0,
        crash_probability: float = 0.4,
        partition_probability: float = 0.15,
        link_probability: float = 0.15,
        corrupt_probability: float = 0.15,
        downtime: float = 10.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        total = (
            crash_probability
            + partition_probability
            + link_probability
            + corrupt_probability
        )
        if total > 1.0:
            raise ValueError(f"action probabilities sum to {total} > 1")
        require_positive(downtime, "downtime")
        self.rng = RandomSource(seed, label="adversary")
        self.crash_probability = crash_probability
        self.partition_probability = partition_probability
        self.link_probability = link_probability
        self.corrupt_probability = corrupt_probability
        self.downtime = downtime

    def _candidates(self, system: System) -> List[int]:
        return [
            shell.pid
            for shell in system.shells
            if not shell.crashed and shell.pid not in self.protect
        ]

    def _link_candidates(self, system: System) -> Optional[Tuple[int, int]]:
        """Draw a directed link between unprotected pids, or ``None``.

        ``protect`` means *never targeted*, and a degraded or corrupting link
        touching a protected process targets it just as a crash would — so
        protected pids are excluded from both endpoints.
        """
        pids = [pid for pid in range(system.config.n) if pid not in self.protect]
        if len(pids) < 2:
            return None
        sender, dest = self.rng.sample(pids, 2)
        return sender, dest

    def decide(self, now: float) -> None:
        for index, system in enumerate(self._systems):
            draw = self.rng.random()
            horizon = now + self.downtime
            threshold = self.crash_probability
            if draw < threshold:
                candidates = self._candidates(system)
                if candidates and self.budget_remaining(system) > 0:
                    pid = self.rng.choice(candidates)
                    if self.inject(index, Crash(time=now, pid=pid)):
                        self.inject(index, Recover(time=horizon, pid=pid))
                continue
            threshold += self.partition_probability
            if draw < threshold:
                link_state = system.link_state
                if link_state is not None and link_state.partitioned:
                    continue  # one partition at a time (see LeaderHunter)
                candidates = self._candidates(system)
                if candidates:
                    pid = self.rng.choice(candidates)
                    if self.inject(
                        index, PartitionStart(time=now, groups=((pid,),))
                    ):
                        self.inject(index, PartitionHeal(time=horizon))
                continue
            threshold += self.link_probability
            if draw < threshold:
                link = self._link_candidates(system)
                if link is not None:
                    sender, dest = link
                    self.inject(
                        index,
                        LinkFault(
                            time=now,
                            sender=sender,
                            dest=dest,
                            loss_probability=0.5,
                            until=horizon,
                        ),
                    )
                continue
            threshold += self.corrupt_probability
            if draw < threshold:
                link = self._link_candidates(system)
                if link is not None:
                    sender, dest = link
                    self.inject(
                        index,
                        CorruptLink(
                            time=now, sender=sender, dest=dest, until=horizon
                        ),
                    )


#: Names :func:`adversary_by_name` accepts (``ServiceSpec.adversary``).
ADVERSARIES = ("leader-hunter", "churn", "random")


def adversary_by_name(
    name: str, period: float, stop: Optional[float], seed: int
) -> Adversary:
    """Build the shipped adversary a JSON-flat run description names.

    The downtimes are the ones every pinned fuzz campaign ran with; *seed* is
    the run's master seed (only the random adversary draws from it).
    """
    if name == "leader-hunter":
        return LeaderHunter(downtime=10.0, period=period, stop=stop)
    if name == "churn":
        return ChurnAdversary(downtime=8.0, period=period, stop=stop)
    if name == "random":
        return RandomAdversary(
            seed=derive_seed(seed, "adversary"), period=period, stop=stop
        )
    raise ValueError(f"unknown adversary {name!r} (expected one of {ADVERSARIES})")


__all__ = [
    "ADVERSARIES",
    "Adversary",
    "AdversaryAction",
    "ChurnAdversary",
    "LeaderHunter",
    "RandomAdversary",
    "adversary_by_name",
]

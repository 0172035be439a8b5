"""Hash-partitioned sharding of the keyspace across independent consensus groups.

A single replicated log serialises every command through one leader — throughput is
bounded by one consensus pipeline.  :class:`ShardedService` scales out the paper's
stack the standard way: the keyspace is hash-partitioned across ``S`` independent
shard groups, each an autonomous ``AS_{n,t}`` system (its own Omega oracle, its own
consensus instances, its own delay scenario and fault plan), all multiplexed on
**one** :class:`~repro.simulation.scheduler.EventScheduler` so a single virtual
clock drives the whole deployment and cross-shard throughput is measured coherently.

The :class:`ShardRouter` uses CRC-32 (stable across processes and platforms, unlike
Python's randomised ``hash``) so that a key's home shard is reproducible for a
given shard count.

:class:`ServiceSpec` is the one JSON-flat description of a run — what the fuzz
executor, the parallel shard executor, benchmarks and regression artifacts
exchange — and :func:`build_service` the one mapping from it to a
:class:`ShardedService` (:func:`~repro.service.clients.start_workload` starts
the load it describes).
"""

from __future__ import annotations

import dataclasses
import functools
import zlib
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

from repro.assumptions.base import Scenario
from repro.assumptions.scenarios import (
    ConstantDelayScenario,
    IntermittentRotatingStarScenario,
)
from repro.consensus.batching import AdaptiveBatchPolicy
from repro.consensus.commands import Command
from repro.consensus.leases import LeaseManager
from repro.core.figure3 import Figure3Omega
from repro.core.interfaces import fold_counters
from repro.core.omega_base import RotatingStarOmegaBase
from repro.service.replica import ServiceReplica
from repro.service.state_machine import KeyValueStore, StateMachine
from repro.simulation.adversary import ADVERSARIES, adversary_by_name
from repro.simulation.crash import random_crash_times
from repro.simulation.faults import DEFAULT_ROUND_RESYNC_GAP, FaultPlan
from repro.simulation.process import SimProcessShell
from repro.simulation.scheduler import EventScheduler
from repro.simulation.system import System, SystemConfig
from repro.storage.compaction import CompactionPolicy
from repro.storage.stable_store import StableStorage, WriteCostModel
from repro.util.rng import RandomSource, derive_seed
from repro.util.validation import require_positive

#: The registry counts ``ShardedService.perf_counters`` reports.
_PERF_COUNTERS = (
    "round_resyncs",
    "forward_msgs_sent",
    "forward_commands_sent",
    "ballots_started",
    "accept_rounds_started",
    "snapshots_taken",
    "snapshot_restores",
    "positions_compacted",
    "snapshots_rejected",
    "peak_decided_residency",
)
#: Counts reported only in lease mode — by ``perf_counters`` and by the fuzz
#: coverage features alike — so that leases-off reports (and the fingerprints
#: derived from them) stay byte-identical to the seed.
LEASE_MODE_COUNTERS = (
    "lease_renewals",
    "lease_gated_drops",
    "lease_reads_served",
    "lease_read_fallbacks",
    "read_index_polls",
)


class ShardRouter:
    """Deterministic key -> shard mapping."""

    def __init__(self, num_shards: int) -> None:
        require_positive(num_shards, "num_shards")
        self.num_shards = int(num_shards)

    def shard_for(self, key: str) -> int:
        """Return the shard owning *key*."""
        return zlib.crc32(str(key).encode("utf-8")) % self.num_shards


class ShardedService:
    """``S`` Omega+consensus groups serving one hash-partitioned key-value store.

    Parameters
    ----------
    num_shards:
        Number of independent consensus groups.
    n, t:
        Size and fault budget of **each** group (``t < n/2`` per group).
    scenario_factory:
        Callable ``shard -> Scenario`` building the behavioural assumption of each
        group (defaults to :func:`default_star_scenario`: an intermittent
        rotating star with a per-shard seed and a rotating centre).
    fault_plan_factory:
        Optional callable ``shard -> FaultPlan`` injecting per-shard faults
        (crashes, recoveries, partitions, link faults, payload corruption);
        ``None`` runs every shard fault-free.  Plans that permanently break a
        shard's assumption are recorded in :attr:`assumption_violations`.
    adversary:
        Optional adaptive adversary (see :mod:`repro.simulation.adversary`);
        it is installed on the whole service — observing every shard on the
        shared clock and injecting validated faults at its decision ticks.
        Because adversaries inject recoveries and partitions at run time, an
        installed adversary enables the crash-recovery round resynchronisation
        (``OmegaConfig.round_resync_gap``) on every shard, exactly as a static
        plan with such events would.
    batch_size:
        Commands the shard leader packs into one consensus instance — an
        ``int`` (fixed limit, byte-identical to the seed behaviour), the
        string ``"adaptive"`` (an :class:`~repro.consensus.batching.
        AdaptiveBatchPolicy` with default bounds) or a configured policy
        instance used as a template: each replica incarnation gets its own
        :meth:`~repro.consensus.batching.AdaptiveBatchPolicy.spawn`-ed copy,
        so the EWMA state is per-leader, never shared.
    seed:
        Master seed; every shard derives an independent stream from it.
    stable_storage:
        Durability of the consensus layer.  ``False`` (the default) keeps the
        storage-less crash-recovery model — pure crash-stop runs stay
        byte-identical to their committed fingerprints, and restarts carry the
        quorum-amnesia hazard, which is recorded per shard in
        :attr:`amnesia_hazards`.  ``True`` gives every replica a durable
        :class:`~repro.storage.stable_store.StableStore` (free writes) that its
        recoveries rehydrate from; a
        :class:`~repro.storage.stable_store.WriteCostModel` instance does the
        same *and* charges each durable write on the virtual clock (fsync
        before reply).  Adversaries injecting recoveries at run time are only
        amnesia-safe with storage on — the static hazard check cannot see
        their future injections.
    compaction:
        Snapshot/log-compaction policy for every replica.  ``None`` (the
        default) keeps full history resident — all committed fingerprints stay
        byte-identical.  A :class:`~repro.storage.compaction.CompactionPolicy`
        (or a bare int, shorthand for ``CompactionPolicy(interval=int)``)
        gives every replica a :class:`~repro.storage.snapshot.SnapshotManager`:
        periodic state snapshots, truncation of the covered decided prefix
        (bounded memory), snapshot-based catch-up for laggards below the floor
        and — with ``stable_storage`` on — snapshot-then-tail rehydration at
        recovery.  Composes with either storage mode; note that snapshots do
        **not** cure quorum amnesia (they restore applied state, never promise
        memory), so :attr:`amnesia_hazards` is computed exactly as without
        compaction.
    leases:
        Lease-based read path.  ``False`` (the default) keeps every ``get``
        on the consensus path — all committed fingerprints stay
        byte-identical.  ``True`` gives every replica a
        :class:`~repro.consensus.leases.LeaseManager`: the trusted leader
        renews a read lease through its heartbeat traffic and serves
        :meth:`submit_read` gets locally inside a valid lease (validated on
        the virtual clock); followers serve through the read-index protocol;
        reads that cannot be certified in time fall back to the consensus
        path.  Per-shard renewal audits land in :attr:`lease_audits` (the
        mutual-exclusion evidence the property tests check) and client-side
        read observations in :attr:`read_audits` (the stale-read probe's
        input) — both lists survive replica recoveries.
    lease_duration:
        Lease term in virtual time (must comfortably exceed ``drive_period``,
        the renewal cadence).
    lease_validation:
        **Unsafe when False**: lease holders skip the expiry check at serve
        time.  Exists only so the stale-read regression witness can pin the
        schedule on which clock validation is what prevents a stale read.
    """

    def __init__(
        self,
        num_shards: int,
        n: int,
        t: int,
        scenario_factory: Optional[Callable[[int], Scenario]] = None,
        fault_plan_factory: Optional[Callable[[int], FaultPlan]] = None,
        adversary=None,
        batch_size: Union[int, str, AdaptiveBatchPolicy] = 8,
        drive_period: float = 2.0,
        retry_period: float = 10.0,
        seed: int = 0,
        omega_cls: Type[RotatingStarOmegaBase] = Figure3Omega,
        state_machine_factory: Callable[[], StateMachine] = KeyValueStore,
        stable_storage: Union[bool, WriteCostModel] = False,
        compaction: Optional[Union[int, CompactionPolicy]] = None,
        leases: bool = False,
        lease_duration: float = 6.0,
        lease_validation: bool = True,
    ) -> None:
        require_positive(num_shards, "num_shards")
        self.num_shards = int(num_shards)
        self.n = n
        self.t = t
        if batch_size == "adaptive":
            batch_size = AdaptiveBatchPolicy()
        self.batch_size = batch_size
        self._batch_policy = (
            batch_size if isinstance(batch_size, AdaptiveBatchPolicy) else None
        )
        self.seed = seed
        #: Lease read path enabled? (see the class docstring)
        self.leases = bool(leases)
        self.lease_duration = lease_duration
        self.lease_validation = lease_validation
        #: Per-shard ``(pid, start, expiry)`` renewal audits (lease mode only);
        #: shared by every replica incarnation of the shard, so the whole-run
        #: mutual-exclusion evidence survives crashes and recoveries.
        self.lease_audits: List[List[Tuple[int, float, float]]] = [
            [] for _ in range(self.num_shards)
        ]
        #: Per-shard client-observed lease reads, appended by
        #: :class:`~repro.service.clients.ClosedLoopClient`:
        #: ``(client_id, seq, key, result, index, invoked_at, completed_at)``.
        self.read_audits: List[List[Tuple]] = [[] for _ in range(self.num_shards)]
        #: ``(client_id, seq) -> waker`` of every command a client waits on.  A
        #: replica that applies or lease-serves the command calls its waker
        #: (every waker, when it installs a snapshot) — see :meth:`_wake`.
        self.waiters: Dict[Tuple[str, int], Callable[[], None]] = {}
        self.router = ShardRouter(num_shards)
        self.scheduler = EventScheduler()
        self.systems: List[System] = []
        #: Per-shard stable storage registries, or ``None`` (the default) for
        #: the storage-less crash-recovery model.
        self.storages: Optional[List[StableStorage]] = None
        self._write_cost_model: Optional[WriteCostModel] = None
        if stable_storage:
            self._write_cost_model = (
                stable_storage if isinstance(stable_storage, WriteCostModel) else None
            )
            self.storages = [
                StableStorage(cost_model=self._write_cost_model)
                for _ in range(self.num_shards)
            ]
        if isinstance(compaction, int) and not isinstance(compaction, bool):
            compaction = CompactionPolicy(interval=compaction)
        #: The snapshot/compaction policy shared by every replica, or ``None``.
        self.compaction: Optional[CompactionPolicy] = compaction
        #: shard -> descriptions of how its fault plan permanently breaks the
        #: shard's assumption (empty lists when every plan is assumption-safe).
        self.assumption_violations: Dict[int, List[str]] = {}
        #: shard -> quorum-amnesia hazards of its static plan when storage is
        #: off (always empty with ``stable_storage`` on — persisted promises
        #: make restarts memory-preserving).  See ``FaultPlan.amnesia_hazards``.
        self.amnesia_hazards: Dict[int, List[str]] = {}
        # Per-shard correct-replica lists, keyed by the shard system's fault
        # epoch: a Recover event replaces algorithm objects, so the cache must
        # be refreshed whenever the fault state changes — see correct_replicas().
        self._correct_replicas_cache: Dict[int, Tuple[int, List[ServiceReplica]]] = {}

        if scenario_factory is None:
            scenario_factory = functools.partial(default_star_scenario, n, t, seed)

        for shard in range(self.num_shards):
            scenario = scenario_factory(shard)
            if (scenario.n, scenario.t) != (n, t):
                raise ValueError(
                    f"shard {shard} scenario was built for (n={scenario.n}, "
                    f"t={scenario.t}), expected (n={n}, t={t})"
                )
            # A round that suspects nobody broadcasts nothing: an empty
            # SUSPICION is a no-op at every receiver under every figure, so —
            # unlike pacing below — this does not depend on the oracle class.
            omega_config = dataclasses.replace(
                scenario.recommended_omega_config(), quiet_rounds=True
            )
            if issubclass(omega_cls, Figure3Omega):
                # Heartbeats pace themselves to the line-11 timeout, which only
                # Figure 3 bounds (Theorem 4): under Figures 1-2 a crashed
                # process's level — hence the ALIVE period — would grow for
                # ever and break task T1's bounded period.
                omega_config = dataclasses.replace(omega_config, pace_alive=True)
            fault_plan = (
                fault_plan_factory(shard)
                if fault_plan_factory is not None
                else FaultPlan.none()
            )
            self.assumption_violations[shard] = scenario.fault_plan_violations(
                fault_plan
            )
            self.amnesia_hazards[shard] = (
                [] if self.storages is not None else fault_plan.amnesia_hazards(n, t)
            )
            if (
                fault_plan.needs_round_resync() or adversary is not None
            ) and omega_config.round_resync_gap is None:
                # Partitions / recoveries can stall the paper's exact-round
                # closing rule; enable the crash-recovery round fast-forward.
                # An adversary injects such events at run time, so its mere
                # presence enables the gap.  Pure crash-stop plans skip this
                # and keep the paper's exact semantics.
                omega_config = dataclasses.replace(
                    omega_config, round_resync_gap=DEFAULT_ROUND_RESYNC_GAP
                )

            def factory(
                pid: int, _config=omega_config, _shard=shard
            ) -> ServiceReplica:
                lease_manager = None
                if self.leases:
                    # Per-incarnation manager (a recovered replica starts with
                    # the grant blackout of a fresh one); the audit list is the
                    # shard's, so renewal evidence survives recoveries.
                    lease_manager = LeaseManager(
                        pid=pid,
                        n=n,
                        t=t,
                        duration=self.lease_duration,
                        validate_clock=self.lease_validation,
                        audit=self.lease_audits[_shard],
                    )
                replica = ServiceReplica(
                    pid=pid,
                    n=n,
                    t=t,
                    state_machine=state_machine_factory(),
                    omega_cls=omega_cls,
                    omega_config=_config,
                    drive_period=drive_period,
                    retry_period=retry_period,
                    batch_size=(
                        self._batch_policy.spawn()
                        if self._batch_policy is not None
                        else batch_size
                    ),
                    compaction=self.compaction,
                    leases=lease_manager,
                )
                # Wired per incarnation, before any storage replay, so a
                # recovered replica wakes clients like a fresh one.
                replica.on_wake = self._wake
                return replica

            self.systems.append(
                System(
                    config=SystemConfig(n=n, t=t, seed=derive_seed(seed, "shard", shard)),
                    process_factory=factory,
                    delay_model=scenario.build_delay_model(),
                    fault_plan=fault_plan,
                    scheduler=self.scheduler,
                    storage=self.storages[shard] if self.storages is not None else None,
                )
            )

        #: The installed adaptive adversary, or ``None``.
        self.adversary = adversary
        if adversary is not None:
            adversary.install(self)

    # ------------------------------------------------------------------ execution --
    @property
    def now(self) -> float:
        """Current virtual time of the shared clock."""
        return self.scheduler.now

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Advance every shard to absolute virtual *time*."""
        return self.scheduler.run_until(time, max_events=max_events)

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Advance every shard by *duration* time units."""
        return self.scheduler.run_until(self.now + duration, max_events=max_events)

    # ------------------------------------------------------------------ client API --
    def shard_for(self, key: str) -> int:
        """Return the shard owning *key*."""
        return self.router.shard_for(key)

    def submit(self, command: Command, gateway: Optional[int] = None) -> int:
        """Submit *command* to its home shard; return the shard index.

        ``gateway`` selects the replica the command enters through (the client's
        session affinity); a crashed or missing gateway falls back to the first
        alive replica, modelling client fail-over.
        """
        shard = self.router.shard_for(command.key)
        self._gateway(shard, gateway).algorithm.submit_command(command)
        return shard

    def submit_read(self, command: Command, gateway: Optional[int] = None) -> int:
        """Submit a ``get`` through the lease read path; return the shard index.

        The gateway replica serves it locally when it is a leader holding read
        authority, queues it behind a read-index certification otherwise, and
        times it out into the ordinary consensus path when neither works — so
        the client contract is the same as :meth:`submit`: once woken through
        :attr:`waiters`, check whether some correct replica reports the read
        complete (via
        :meth:`~repro.service.replica.ServiceReplica.lease_read_result` or,
        after a fallback, ``command_applied``).  A local serve happens inside
        this call, so a client registers its waiter *before* submitting.
        """
        if not self.leases:
            raise RuntimeError("submit_read requires ShardedService(leases=True)")
        shard = self.router.shard_for(command.key)
        self._gateway(shard, gateway).algorithm.submit_read(command, now=self.now)
        return shard

    def _gateway(self, shard: int, gateway: Optional[int]) -> SimProcessShell:
        """The shell a command enters *shard* through: *gateway* unless it is
        ``None`` or crashed, else the first alive replica."""
        system = self.systems[shard]
        if gateway is not None and not system.shells[gateway].crashed:
            return system.shells[gateway]
        alive = system.alive_shells()
        if not alive:
            raise RuntimeError(f"shard {shard} has no alive replica")
        return alive[0]

    def _wake(self, key: Optional[Tuple[str, int]]) -> None:
        """Replica wake hook: call the waker of *key*, or every waker (``None``)."""
        if key is None:
            for waker in list(self.waiters.values()):
                waker()
            return
        waker = self.waiters.get(key)
        if waker is not None:
            waker()

    # ------------------------------------------------------------------ accessors --
    def replicas(self, shard: int) -> List[ServiceReplica]:
        """Return every replica of *shard* (including crashed ones)."""
        return [shell.algorithm for shell in self.systems[shard].shells]

    def correct_replicas(self, shard: int) -> List[ServiceReplica]:
        """Return the replicas of *shard* that are eventually up under its plan.

        Cached per fault epoch, not once: a ``Recover`` event rebuilds a
        replica's algorithm object from its initial state, so a permanent cache
        would keep handing out the dead pre-crash object.  The cache is
        invalidated whenever the shard system's fault state changes (crash,
        recovery, run-time injection) and rebuilt on the next read.  Callers
        must not mutate the list.
        """
        system = self.systems[shard]
        epoch = system.fault_epoch
        cached = self._correct_replicas_cache.get(shard)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        replicas = [shell.algorithm for shell in system.correct_shells()]
        self._correct_replicas_cache[shard] = (epoch, replicas)
        return replicas

    def reference_replica(self, shard: int) -> ServiceReplica:
        """A correct replica used for shard-level reporting."""
        return self.correct_replicas(shard)[0]

    def leader_hint(self, shard: int) -> Optional[int]:
        """Leader agreed by *shard*'s alive replicas (None during a split).

        Lease-mode clients route gets through this hint so the common case is
        the leader's local serve; a ``None`` (or stale) hint only costs the
        read-index or fallback detour, never correctness.
        """
        return self.systems[shard].agreed_leader()

    def leaders(self) -> Dict[int, Optional[int]]:
        """shard -> leader agreed by the shard's alive replicas (None = split)."""
        return {
            shard: system.agreed_leader()
            for shard, system in enumerate(self.systems)
        }

    def state_digests(self, shard: int, correct_only: bool = True) -> List[str]:
        """Digests of the shard's replicas (crashed ones excluded by default)."""
        replicas = (
            self.correct_replicas(shard) if correct_only else self.replicas(shard)
        )
        return [replica.state_machine.digest() for replica in replicas]

    def is_consistent(self) -> bool:
        """True when, per shard, every correct replica has the identical state."""
        return all(
            len(set(self.state_digests(shard))) == 1
            for shard in range(self.num_shards)
        )

    def applied_commands(self, shard: int) -> int:
        """Effective (duplicate-free) commands applied at the reference replica."""
        machine = self.reference_replica(shard).state_machine
        if isinstance(machine, KeyValueStore):
            return machine.applied
        raise NotImplementedError("applied_commands requires a KeyValueStore")

    def decided_instances(self, shard: int) -> int:
        """Decided non-noop consensus instances at the reference replica.

        Counter-backed (O(1)) rather than a scan of ``decisions``: under
        compaction the resident window no longer holds the whole history, and
        snapshots carry the below-floor count across installs.
        """
        return self.reference_replica(shard).log.decided_value_count

    def total_applied(self) -> int:
        """Effective commands applied across all shards."""
        return sum(self.applied_commands(shard) for shard in range(self.num_shards))

    def corrupted_messages(self) -> int:
        """Messages tampered in flight across all shards (network accounting)."""
        return sum(system.stats.total_corrupted for system in self.systems)

    def corrupted_deliveries(self) -> int:
        """Tampered messages handed to an alive replica, across all shards.

        Every one of these was rejected at the consensus/service boundary:
        the replica-side count ``counters()["corruption_rejections"]`` matches
        this network-side one exactly, across recoveries too.
        """
        return sum(system.stats.corrupted_delivered for system in self.systems)

    def storage_writes(self) -> int:
        """Durable writes across all shards (0 with ``stable_storage`` off)."""
        if self.storages is None:
            return 0
        return sum(storage.total_writes for storage in self.storages)

    def storage_cost(self) -> float:
        """Virtual-time write cost charged across all shards.

        Non-zero only when ``stable_storage`` was given as a
        :class:`~repro.storage.stable_store.WriteCostModel` — the free-write
        mode persists without touching the clock.
        """
        if self.storages is None:
            return 0.0
        return sum(storage.total_cost for storage in self.storages)

    def storage_deletes(self) -> int:
        """Durable entries compacted away across all shards (0 without storage)."""
        if self.storages is None:
            return 0
        return sum(
            store.deletes
            for storage in self.storages
            for store in storage.stores()
        )

    def counters(self) -> Dict[str, int]:
        """Whole-run total of every count any replica keeps, by name.

        The fold of every process's counter registry (see
        :attr:`~repro.core.interfaces.Process.counters`).  A registry already
        covers all of its process's incarnations, so totals — high-water marks
        included — never shrink at a restart.  Names nothing bumped read as 0.
        """
        total: Dict[str, int] = Counter()
        for system in self.systems:
            for shell in system.shells:
                fold_counters(total, shell.algorithm.counters)
        return total

    def total_instances(self) -> int:
        """Decided non-noop consensus instances across all shards."""
        return sum(self.decided_instances(shard) for shard in range(self.num_shards))

    def perf_counters(self) -> Dict[str, int]:
        """The counts the perf reports select (reporting/merge surface).

        Deterministic for a given seed.  All values are totals except
        ``peak_decided_residency``, a high-water mark — mergers that combine
        services fold with :func:`~repro.core.interfaces.fold_counters`.
        """
        names = _PERF_COUNTERS + LEASE_MODE_COUNTERS if self.leases else _PERF_COUNTERS
        counters = self.counters()
        perf = {
            "recoveries": sum(
                shell.recoveries
                for system in self.systems
                for shell in system.shells
            ),
            "storage_writes": self.storage_writes(),
        }
        perf.update((name, counters[name]) for name in names)
        return perf

    def rng(self, *labels: object) -> RandomSource:
        """Derive a deterministic random source for workload machinery."""
        return RandomSource(derive_seed(self.seed, "service", *labels))


def default_star_scenario(
    n: int, t: int, seed: int, shard: int
) -> IntermittentRotatingStarScenario:
    """The behavioural assumption a shard group runs under unless told otherwise.

    An intermittent rotating star whose centre rotates with the shard index
    and whose schedule derives from the *service* seed — *shard* is the global
    index, also when a shard runs alone (see :mod:`repro.simulation.parallel`).
    """
    return IntermittentRotatingStarScenario(
        n=n,
        t=t,
        center=shard % n,
        seed=derive_seed(seed, "scenario", shard),
        max_gap=4,
    )


@dataclasses.dataclass(frozen=True)
class ServiceSpec:
    """One description of a run: everything but the fault plans.

    Cluster, protocol, storage/compaction, leases, assumption/adversary and
    closed-loop load, JSON-flat (``to_dict``/``from_dict`` round-trip exactly)
    so findings and regression artifacts embed it verbatim and worker
    processes receive it across process boundaries.  Fault plans travel beside
    it: ``(spec, plan)`` is a complete, replayable run.

    **Naming and defaults are one rule.**  A field that feeds one
    :class:`ShardedService` / :func:`~repro.service.clients.start_clients`
    keyword carries that keyword's name and default: ``seed``, ``batch_size``
    (an int or ``"adaptive"``), ``drive_period``, ``retry_period``, ``leases``,
    ``lease_duration``, ``lease_validation``, ``num_clients``, ``stop_at``,
    ``poll_interval``, ``retry_timeout``.  Keywords that take an object have
    flat stand-ins:

    ``storage_write_cost``
        ``stable_storage``: ``None`` off, ``0.0`` free durable writes, ``> 0``
        a ``WriteCostModel(per_write=...)`` charged on the virtual clock.
    ``compaction_interval`` / ``compaction_retain``
        ``compaction``: ``None`` off, else a ``CompactionPolicy`` (whose
        default ``retain`` is this one's).
    ``scenario`` / ``delay``
        ``scenario_factory``: ``"star"`` is :func:`default_star_scenario`,
        ``"constant"`` a ``ConstantDelayScenario(delay=...)`` on every shard.
    ``adversary`` / ``adversary_period``
        ``adversary``: ``None`` or a name :func:`~repro.simulation.adversary.
        adversary_by_name` knows; it stops acting at ``stop_at``.
    ``num_keys`` / ``read_fraction`` / ``zipf_theta``
        ``workload_factory``: uniform keys when ``zipf_theta`` is ``None``,
        zipfian with that skew otherwise.

    Fields with no constructor default (``n``, ``t``, ``num_shards``,
    ``horizon``, ``num_clients``, ``num_keys``) are required.  Under
    :func:`~repro.simulation.parallel.run_parallel_service` every shard is its
    own service, so ``num_clients`` is per shard there.
    """

    n: int
    t: int
    num_shards: int
    horizon: float
    num_clients: int
    num_keys: int
    seed: int = 0
    batch_size: Union[int, str] = 8
    drive_period: float = 2.0
    retry_period: float = 10.0
    storage_write_cost: Optional[float] = None
    compaction_interval: Optional[int] = None
    compaction_retain: int = 32
    leases: bool = False
    lease_duration: float = 6.0
    #: **Unsafe when False** — see :class:`ShardedService`.
    lease_validation: bool = True
    scenario: str = "star"
    delay: float = 0.5
    adversary: Optional[str] = None
    adversary_period: float = 15.0
    stop_at: Optional[float] = None
    read_fraction: float = 0.5
    zipf_theta: Optional[float] = None
    poll_interval: float = 1.0
    retry_timeout: float = 40.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.stop_at is not None and not 0 < self.stop_at <= self.horizon:
            raise ValueError(
                f"stop_at={self.stop_at} must lie in (0, horizon={self.horizon}]"
            )
        if self.storage_write_cost is not None and self.storage_write_cost < 0:
            raise ValueError(
                f"storage_write_cost must be >= 0, got {self.storage_write_cost}"
            )
        if self.scenario not in ("star", "constant"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.adversary is not None and self.adversary not in ADVERSARIES:
            raise ValueError(
                f"unknown adversary {self.adversary!r} (expected one of {ADVERSARIES})"
            )

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ServiceSpec":
        if not isinstance(data, dict):
            raise ValueError(f"service spec must be a dict, got {data!r}")
        fields = dataclasses.fields(cls)
        unknown = sorted(set(data) - {field.name for field in fields})
        if unknown:
            raise ValueError(f"unknown service spec field(s) {unknown}")
        missing = sorted(
            field.name
            for field in fields
            if field.default is dataclasses.MISSING and field.name not in data
        )
        if missing:
            raise ValueError(f"service spec is missing field(s) {missing}")
        return cls(**data)

    def build_scenario(self, shard: int) -> Scenario:
        """The behavioural assumption of (global) shard index *shard*."""
        if self.scenario == "constant":
            return ConstantDelayScenario(self.n, self.t, delay=self.delay)
        return default_star_scenario(self.n, self.t, self.seed, shard)


def build_service(
    spec: ServiceSpec,
    fault_plan_factory: Optional[Callable[[int], FaultPlan]] = None,
    scenario_factory: Optional[Callable[[int], Scenario]] = None,
) -> ShardedService:
    """Construct the service *spec* describes — the only spec → service mapping.

    ``fault_plan_factory`` is :class:`ShardedService`'s; ``scenario_factory``
    overrides ``spec.build_scenario`` (a shard run alone passes its global
    index through it — see :func:`repro.simulation.parallel.run_shard`).
    """
    stable_storage: Union[bool, WriteCostModel] = False
    if spec.storage_write_cost is not None:
        stable_storage = (
            WriteCostModel(per_write=spec.storage_write_cost)
            if spec.storage_write_cost > 0
            else True
        )
    compaction = None
    if spec.compaction_interval is not None:
        compaction = CompactionPolicy(
            interval=spec.compaction_interval, retain=spec.compaction_retain
        )
    adversary = None
    if spec.adversary is not None:
        adversary = adversary_by_name(
            spec.adversary, spec.adversary_period, spec.stop_at, spec.seed
        )
    return ShardedService(
        num_shards=spec.num_shards,
        n=spec.n,
        t=spec.t,
        scenario_factory=scenario_factory or spec.build_scenario,
        fault_plan_factory=fault_plan_factory,
        adversary=adversary,
        batch_size=spec.batch_size,
        drive_period=spec.drive_period,
        retry_period=spec.retry_period,
        seed=spec.seed,
        stable_storage=stable_storage,
        compaction=compaction,
        leases=spec.leases,
        lease_duration=spec.lease_duration,
        lease_validation=spec.lease_validation,
    )


def build_sharded_service(
    num_shards: int,
    n: int,
    t: int,
    seed: int = 0,
    batch_size: int = 8,
    crashes_per_shard: int = 0,
    crash_horizon: float = 100.0,
    **kwargs,
) -> ShardedService:
    """Build a :class:`ShardedService` with the default star scenarios.

    ``crashes_per_shard`` > 0 injects that many random crashes (at most ``t``) per
    shard at uniform times in ``[0, crash_horizon]``, protecting each shard's star
    centre so the liveness assumption keeps holding.  An explicit
    ``fault_plan_factory`` keyword overrides the random crashes.
    """

    def random_crashes(shard: int) -> FaultPlan:
        return FaultPlan.crashes(
            random_crash_times(
                n=n,
                t=t,
                rng=RandomSource(derive_seed(seed, "crash", shard)),
                horizon=crash_horizon,
                count=min(crashes_per_shard, t),
                protect=[shard % n],
            )
        )

    if crashes_per_shard > 0 and kwargs.get("fault_plan_factory") is None:
        kwargs["fault_plan_factory"] = random_crashes
    return ShardedService(
        num_shards=num_shards,
        n=n,
        t=t,
        batch_size=batch_size,
        seed=seed,
        **kwargs,
    )

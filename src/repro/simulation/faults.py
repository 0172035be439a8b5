"""Unified fault-plan engine: crashes, recoveries, partitions, link faults and
message corruption.

The paper's failure model is crash-stop: at most ``t`` of the ``n`` processes
halt.  This module is the one vocabulary in which a run's faults — that model
and everything the service layers test beyond it — are described:

* a :class:`FaultEvent` is one timed fault — :class:`Crash`, :class:`Recover`,
  :class:`PartitionStart` / :class:`PartitionHeal`, :class:`LinkFault` /
  :class:`LinkHeal`, :class:`CorruptLink`, :class:`SlowProcess`;
* a :class:`FaultPlan` groups events into a declarative, validated, replayable
  plan, with builders for the standard shapes (pure crash-stop schedules, rolling
  restarts, split brain, flaky links, corrupting links, random plans from a
  :class:`~repro.util.rng.RandomSource`);
* a :class:`FaultInjector` schedules the plan's events on a system's virtual
  clock and applies them (it is the only object that mutates the system).
  Events may also be injected while the run is in progress —
  :meth:`FaultInjector.inject` revalidates the whole plan, which is the hook
  the *adaptive adversaries* of :mod:`repro.simulation.adversary` drive;
* a :class:`LinkState` matrix holds the *current* topology faults; the
  :class:`~repro.simulation.network.Network` consults it on every send, before
  the delay model draws a delay.

Beyond dropping and delaying, a link can **corrupt**: a :class:`CorruptLink`
fault garbles the command payloads of messages crossing the link (stale
checksums preserved — see :mod:`repro.simulation.corruption`) instead of losing
them.  Detection is end-to-end: the consensus/service boundary verifies the
checksums and rejects tampered deliveries, so corruption degrades into message
loss rather than divergent replica state.

Determinism and the hot path
----------------------------
A plan containing only :class:`Crash` events (or nothing) installs no
:class:`LinkState` — the network's per-message cost is a single ``is None``
check — and leaves the delay model's RNG stream untouched; its crash events are
scheduled in plan order, so two plans listing the same crashes in the same order
occupy the same scheduler positions.  Topology faults draw their loss decisions
from a dedicated, labelled RNG stream so that activating them never perturbs
delay draws.

Semantics
---------
* Reachability is decided at **send** time: a message already in flight when a
  partition starts is still delivered (the send completed), and a message sent
  into a partition is lost even if the partition heals before its delivery time.
* A recovered process restarts its algorithm **from its initial state** by
  default (crash recovery without stable storage): the
  :class:`~repro.simulation.system.System` rebuilds the algorithm object
  through its process factory.  When the system runs with stable storage
  (``System(storage=...)`` / ``ShardedService(stable_storage=True)``), the new
  incarnation is rehydrated from its durable store instead.  Timers armed by a
  previous incarnation never fire after recovery.  Without storage, restarts
  carry the **quorum-amnesia hazard** — a restarted acceptor forgets its
  promises, so enough restarts can silently shrink a promise quorum and break
  agreement; :meth:`FaultPlan.amnesia_hazards` flags plans that can reach that
  state, and ``validate(..., require_quorum_memory=True)`` rejects them.
* ``correct`` means *eventually up*: a process is correct under a plan when its
  final state — after every crash and recovery the plan contains — is up.  For
  pure crash plans this coincides with the crash-stop notion.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.simulation.corruption import corrupt_message
from repro.util.rng import RandomSource
from repro.util.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    validate_process_count,
)


# ---------------------------------------------------------------------------- events
@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """Base class of every timed fault event."""

    time: float

    def __post_init__(self) -> None:
        require_non_negative(self.time, "fault event time")

    def describe(self) -> str:
        return f"{type(self).__name__}@{self.time:g}"


@dataclasses.dataclass(frozen=True)
class Crash(FaultEvent):
    """Process *pid* crashes (stops taking steps) at :attr:`time`."""

    pid: int

    def describe(self) -> str:
        return f"crash(p{self.pid})@{self.time:g}"


@dataclasses.dataclass(frozen=True)
class Recover(FaultEvent):
    """Process *pid* restarts from its initial state at :attr:`time`."""

    pid: int

    def describe(self) -> str:
        return f"recover(p{self.pid})@{self.time:g}"


@dataclasses.dataclass(frozen=True)
class PartitionStart(FaultEvent):
    """Split the system into disjoint groups that cannot exchange messages.

    ``groups`` lists the explicit sides of the partition; processes not named in
    any group implicitly form one extra side together.  A new
    :class:`PartitionStart` replaces any partition currently in force.
    """

    groups: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        seen: Set[int] = set()
        for group in self.groups:
            for pid in group:
                if pid in seen:
                    raise ValueError(f"process {pid} appears in two partition groups")
                seen.add(pid)

    def describe(self) -> str:
        sides = " | ".join("{" + ",".join(map(str, g)) + "}" for g in self.groups)
        return f"partition[{sides}]@{self.time:g}"


@dataclasses.dataclass(frozen=True)
class PartitionHeal(FaultEvent):
    """Remove the partition currently in force (no-op when there is none)."""

    def describe(self) -> str:
        return f"heal@{self.time:g}"


@dataclasses.dataclass(frozen=True)
class LinkFault(FaultEvent):
    """Degrade the directed link ``sender -> dest`` from :attr:`time` on.

    Attributes
    ----------
    block:
        Drop every message on the link (a one-way cut) before the delay model
        even draws a delay.
    loss_probability:
        Drop each message independently with this probability, in ``[0, 1]``
        (fair-lossy link; 1.0 loses everything but, unlike ``block``, still
        consumes one loss draw per message).
    delay_factor / delay_add:
        Transform the delay drawn by the delay model: ``delay * factor + add``.
    until:
        Optional absolute time at which the fault heals by itself.
    """

    sender: int
    dest: int
    block: bool = False
    loss_probability: float = 0.0
    delay_factor: float = 1.0
    delay_add: float = 0.0
    until: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        require_in_range(self.loss_probability, "loss_probability", 0.0, 1.0)
        require_positive(self.delay_factor, "delay_factor")
        require_non_negative(self.delay_add, "delay_add")
        if self.until is not None and self.until <= self.time:
            raise ValueError(
                f"link fault until={self.until} must be after time={self.time}"
            )

    def describe(self) -> str:
        what = "cut" if self.block else (
            f"loss={self.loss_probability:g},x{self.delay_factor:g}+{self.delay_add:g}"
        )
        window = f"..{self.until:g}" if self.until is not None else ".."
        return f"link({self.sender}->{self.dest} {what})@{self.time:g}{window}"


@dataclasses.dataclass(frozen=True)
class LinkHeal(FaultEvent):
    """Restore the directed link ``sender -> dest`` to its nominal behaviour."""

    sender: int
    dest: int

    def describe(self) -> str:
        return f"linkheal({self.sender}->{self.dest})@{self.time:g}"


@dataclasses.dataclass(frozen=True)
class CorruptLink(FaultEvent):
    """Garble command payloads on the directed link ``sender -> dest``.

    From :attr:`time` on, each message crossing the link that carries an
    integrity-protected payload is tampered with (independently, with
    :attr:`probability`): the payload is garbled while its stale checksum is
    preserved, so the receiving side's digest check rejects the delivery (see
    :mod:`repro.simulation.corruption`).  Messages without such a payload —
    the Omega layer's control traffic — pass through unchanged.  Unlike a
    :class:`LinkFault` the link still *delivers* on time; corruption attacks
    integrity, not availability.

    ``until`` heals the corruption by itself; a :class:`LinkHeal` on the same
    directed link removes it too (healing restores the link to nominal
    behaviour in every respect).
    """

    sender: int
    dest: int
    probability: float = 1.0
    until: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        require_in_range(self.probability, "probability", 0.0, 1.0)
        if self.probability == 0.0:
            raise ValueError("a CorruptLink with probability=0 corrupts nothing")
        if self.until is not None and self.until <= self.time:
            raise ValueError(
                f"corruption until={self.until} must be after time={self.time}"
            )

    def describe(self) -> str:
        window = f"..{self.until:g}" if self.until is not None else ".."
        return (
            f"corrupt({self.sender}->{self.dest} "
            f"p={self.probability:g})@{self.time:g}{window}"
        )


@dataclasses.dataclass(frozen=True)
class SlowProcess(FaultEvent):
    """Multiply the delay of every message to/from *pid* by *factor*.

    Models a process on a degraded host (GC pauses, an overloaded NIC) without
    taking it down; ``until`` removes the slowdown, ``factor=1`` at any later
    :class:`SlowProcess` event does the same explicitly.
    """

    pid: int
    factor: float = 1.0
    until: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        require_positive(self.factor, "factor")
        if self.until is not None and self.until <= self.time:
            raise ValueError(f"slowdown until={self.until} must be after time={self.time}")

    def describe(self) -> str:
        return f"slow(p{self.pid} x{self.factor:g})@{self.time:g}"


#: Wire names of the event kinds, used by the ``to_dict``/``from_dict``
#: round-trip (the corpus format of :mod:`repro.fuzz`).  Append-only: renaming
#: a kind would orphan every serialized plan that names it.
EVENT_KINDS: Dict[str, type] = {
    "crash": Crash,
    "recover": Recover,
    "partition_start": PartitionStart,
    "partition_heal": PartitionHeal,
    "link_fault": LinkFault,
    "link_heal": LinkHeal,
    "corrupt_link": CorruptLink,
    "slow_process": SlowProcess,
}

_KIND_OF_EVENT = {cls: kind for kind, cls in EVENT_KINDS.items()}


def event_to_dict(event: FaultEvent) -> Dict[str, object]:
    """Serialize one :class:`FaultEvent` into a JSON-compatible dict."""
    kind = _KIND_OF_EVENT.get(type(event))
    if kind is None:
        raise TypeError(f"cannot serialize unknown fault event {event!r}")
    payload: Dict[str, object] = {"kind": kind}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if field.name == "groups":
            value = [list(group) for group in value]
        payload[field.name] = value
    return payload


def event_from_dict(data: Mapping[str, object]) -> FaultEvent:
    """Rebuild a :class:`FaultEvent` from :func:`event_to_dict` output.

    Validation happens on load: an unknown ``kind``, an unknown field, a
    missing field or an out-of-range value (the dataclasses re-run their
    ``__post_init__`` checks) all raise ``ValueError`` — a corrupted or
    hand-edited corpus entry fails loudly instead of mutating silently.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"fault event must be a mapping, got {data!r}")
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown fault event kind {kind!r} (expected one of {sorted(EVENT_KINDS)})"
        )
    field_names = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - field_names)
    if unknown:
        raise ValueError(f"unknown field(s) {unknown} for fault event kind {kind!r}")
    if "groups" in payload:
        groups = payload["groups"]
        if not isinstance(groups, (list, tuple)):
            raise ValueError(f"partition groups must be a list, got {groups!r}")
        payload["groups"] = tuple(
            tuple(int(pid) for pid in group) for group in groups
        )
    try:
        return cls(**payload)
    except TypeError as exc:  # missing required fields
        raise ValueError(f"invalid {kind!r} event {dict(data)!r}: {exc}") from exc


#: Event kinds that change topology (and therefore require a LinkState matrix).
_TOPOLOGY_EVENTS = (
    PartitionStart,
    PartitionHeal,
    LinkFault,
    LinkHeal,
    CorruptLink,
    SlowProcess,
)

#: Default receiving-round fast-forward threshold enabled for plans that can
#: lose messages or reset a process (see OmegaConfig.round_resync_gap).
DEFAULT_ROUND_RESYNC_GAP = 8


# ---------------------------------------------------------------------------- plan
class FaultPlan:
    """A declarative, ordered collection of :class:`FaultEvent`\\ s.

    Events are kept in insertion order; events sharing a timestamp are applied in
    that order (the scheduler breaks timestamp ties by scheduling order), so the
    order a builder lists its events in is part of what a seeded run replays.
    """

    def __init__(self, events: Optional[Iterable[FaultEvent]] = None) -> None:
        self.events: List[FaultEvent] = []
        for event in events or ():
            self.add(event)

    # ------------------------------------------------------------------ building --
    def add(self, event: FaultEvent) -> "FaultPlan":
        """Append *event*; returns the plan for chaining."""
        if not isinstance(event, FaultEvent):
            raise TypeError(f"expected a FaultEvent, got {event!r}")
        self.events.append(event)
        return self

    def extend(self, events: Iterable[FaultEvent]) -> "FaultPlan":
        """Append every event of *events*; returns the plan for chaining."""
        for event in events:
            self.add(event)
        return self

    @classmethod
    def none(cls) -> "FaultPlan":
        """A fault-free plan (the no-op plan)."""
        return cls()

    @classmethod
    def crashes(cls, crash_times: Mapping[int, float]) -> "FaultPlan":
        """Pure crash-stop plan from a ``pid -> time`` mapping (insertion order)."""
        return cls(Crash(time=float(t), pid=int(pid)) for pid, t in crash_times.items())

    @classmethod
    def rolling_restarts(
        cls,
        pids: Iterable[int],
        start: float,
        downtime: float,
        spacing: Optional[float] = None,
    ) -> "FaultPlan":
        """Crash and recover *pids* one after another (a rolling restart).

        Each process is down for *downtime*; the next one goes down *spacing*
        after the previous (default: right when the previous comes back, so at
        most one process is down at a time).
        """
        require_non_negative(start, "start")
        require_positive(downtime, "downtime")
        if spacing is None:
            spacing = downtime
        require_positive(spacing, "spacing")
        plan = cls()
        for index, pid in enumerate(pids):
            down = start + index * spacing
            plan.add(Crash(time=down, pid=pid))
            plan.add(Recover(time=down + downtime, pid=pid))
        return plan

    @classmethod
    def split_brain(
        cls,
        groups: Sequence[Sequence[int]],
        at: float,
        heal_at: Optional[float] = None,
    ) -> "FaultPlan":
        """Partition the system into *groups* at *at*, optionally healing later."""
        plan = cls()
        plan.add(
            PartitionStart(
                time=at, groups=tuple(tuple(int(p) for p in g) for g in groups)
            )
        )
        if heal_at is not None:
            if heal_at <= at:
                raise ValueError(f"heal_at={heal_at} must be after at={at}")
            plan.add(PartitionHeal(time=heal_at))
        return plan

    @classmethod
    def flaky_links(
        cls,
        links: Iterable[Tuple[int, int]],
        at: float,
        until: Optional[float] = None,
        loss_probability: float = 0.2,
        delay_factor: float = 1.0,
        delay_add: float = 0.0,
    ) -> "FaultPlan":
        """Make every directed link in *links* lossy/slow from *at* (to *until*)."""
        return cls(
            LinkFault(
                time=at,
                sender=int(s),
                dest=int(d),
                loss_probability=loss_probability,
                delay_factor=delay_factor,
                delay_add=delay_add,
                until=until,
            )
            for s, d in links
        )

    @classmethod
    def corrupt_links(
        cls,
        links: Iterable[Tuple[int, int]],
        at: float,
        until: Optional[float] = None,
        probability: float = 1.0,
    ) -> "FaultPlan":
        """Make every directed link in *links* corrupt payloads from *at* (to *until*)."""
        return cls(
            CorruptLink(
                time=at,
                sender=int(s),
                dest=int(d),
                probability=probability,
                until=until,
            )
            for s, d in links
        )

    @classmethod
    def random(
        cls,
        n: int,
        t: int,
        rng: RandomSource,
        horizon: float,
        crash_count: Optional[int] = None,
        recover_probability: float = 0.5,
        partition_probability: float = 0.0,
        flaky_link_count: int = 0,
        loss_probability: float = 0.2,
        corrupt_link_count: int = 0,
        corrupt_probability: float = 0.8,
        protect: Iterable[int] = (),
    ) -> "FaultPlan":
        """Draw a random plan whose faults all end by *horizon*.

        Crashes hit up to *crash_count* (default ``t``) unprotected processes at
        uniform times in the first half of the horizon; each crashed process
        recovers before the horizon with probability *recover_probability*.  With
        *partition_probability*, a random two-sided partition opens and heals
        inside the horizon, *flaky_link_count* random directed links become
        lossy for a sub-window, and *corrupt_link_count* random directed links
        corrupt payloads for a sub-window.  Because every partition heals and
        every link fault carries an ``until``, the plan is quiet after
        *horizon* — the shape the stabilisation-property tests rely on.  The
        defaults draw nothing new, so plans generated by earlier seeds are
        reproduced byte-identically.

        ``protect`` means *never targeted*: protected processes are neither
        crashed, nor used as an endpoint of a drawn lossy or corrupting link
        (degrading a protected process's links attacks it just as a crash
        would), nor named by a drawn partition side — they sit on the implicit
        side together with at least one unprotected peer, so a protected star
        centre is never isolated alone.  With no protected pids every draw is
        byte-identical to plans generated before protection covered links and
        partitions.
        """
        validate_process_count(n, t)
        require_positive(horizon, "horizon")
        count = t if crash_count is None else crash_count
        if count > t:
            raise ValueError(f"cannot crash {count} > t={t} processes")
        protected = set(protect)
        candidates = [pid for pid in range(n) if pid not in protected]
        if count > len(candidates):
            raise ValueError(
                f"cannot crash {count} processes: only {len(candidates)} candidates"
            )
        plan = cls()
        victims = rng.sample(candidates, count) if count else []
        for pid in victims:
            down = rng.uniform(0.0, horizon / 2)
            plan.add(Crash(time=down, pid=pid))
            if rng.random() < recover_probability:
                plan.add(Recover(time=rng.uniform(down + horizon / 10, horizon), pid=pid))
        if len(candidates) >= 2 and rng.random() < partition_probability:
            # The drawn (isolated) side never names a protected process, and at
            # least one unprotected peer stays on the implicit side with the
            # protected ones — so a protected star centre is never the lone
            # process on its side.  With no protected pids this draws exactly
            # as it always did.
            side_size = rng.randint(1, len(candidates) - 1)
            side = tuple(sorted(rng.sample(candidates, side_size)))
            at = rng.uniform(0.0, horizon / 2)
            plan.extend(
                FaultPlan.split_brain(
                    [side], at=at, heal_at=rng.uniform(at + horizon / 10, horizon)
                ).events
            )
        if (flaky_link_count or corrupt_link_count) and len(candidates) < 2:
            raise ValueError(
                f"cannot draw link faults: only {len(candidates)} unprotected "
                "processes (need 2 for a directed link)"
            )
        for _ in range(flaky_link_count):
            sender, dest = rng.sample(candidates, 2)
            at = rng.uniform(0.0, horizon / 2)
            plan.add(
                LinkFault(
                    time=at,
                    sender=sender,
                    dest=dest,
                    loss_probability=loss_probability,
                    until=rng.uniform(at + horizon / 10, horizon),
                )
            )
        for _ in range(corrupt_link_count):
            sender, dest = rng.sample(candidates, 2)
            at = rng.uniform(0.0, horizon / 2)
            plan.add(
                CorruptLink(
                    time=at,
                    sender=sender,
                    dest=dest,
                    probability=corrupt_probability,
                    until=rng.uniform(at + horizon / 10, horizon),
                )
            )
        return plan

    # ------------------------------------------------------------------ serialization --
    def to_dict(self) -> Dict[str, object]:
        """Serialize the plan (event order preserved) into a JSON-compatible dict.

        The inverse of :meth:`from_dict`; the round-trip is exact, so a
        deserialized plan replays byte-identically — the property the fuzz
        corpus (:mod:`repro.fuzz.corpus`) and saved demo plans rely on.
        """
        return {
            "version": 1,
            "events": [event_to_dict(event) for event in self.events],
        }

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, object],
        n: Optional[int] = None,
        t: Optional[int] = None,
    ) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output, validating on load.

        Malformed input — wrong version, unknown event kinds or fields,
        out-of-range values — raises ``ValueError``.  Passing ``n`` and ``t``
        (both, or neither) additionally runs :meth:`validate`, so a plan loaded
        for a concrete system is checked against its ≤ t budget before anything
        executes it.
        """
        if (n is None) != (t is None):
            missing = "n" if n is None else "t"
            raise ValueError(
                f"from_dict validates against both n and t or neither; "
                f"{missing} is missing"
            )
        if not isinstance(data, Mapping):
            raise ValueError(f"fault plan must be a mapping, got {data!r}")
        version = data.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported fault-plan version {version!r}")
        events = data.get("events")
        if not isinstance(events, (list, tuple)):
            raise ValueError(f"fault plan 'events' must be a list, got {events!r}")
        plan = cls(event_from_dict(event) for event in events)
        if n is not None:
            plan.validate(n, t)
        return plan

    # ------------------------------------------------------------------ queries --
    def __len__(self) -> int:
        return len(self.events)

    def has_topology_events(self) -> bool:
        """True when the plan needs a :class:`LinkState` matrix."""
        return any(isinstance(event, _TOPOLOGY_EVENTS) for event in self.events)

    def has_recoveries(self) -> bool:
        """True when the plan contains at least one :class:`Recover` event."""
        return any(type(event) is Recover for event in self.events)

    def needs_round_resync(self) -> bool:
        """True when the plan can stall the paper's round-based algorithms.

        Partitions and lossy/blocked links lose ALIVE messages outright, and a
        process that is down sends none — then comes back numbering its rounds
        from 1 until it rejoins its peers' numbering; either can leave a
        receiving round permanently short of its ``alpha`` exact-round
        receptions.  Systems running such plans should enable
        ``OmegaConfig.round_resync_gap`` (the sharded service does this
        automatically); pure crash-stop plans return False and keep the paper's
        exact semantics.  So do corruption-only plans: a :class:`CorruptLink`
        garbles command payloads but never touches (let alone drops) the Omega
        layer's ALIVE traffic, so rounds keep closing normally.
        """
        if self.has_recoveries():
            return True
        return any(
            isinstance(event, _TOPOLOGY_EVENTS) and type(event) is not CorruptLink
            for event in self.events
        )

    def _chronological(self) -> List[FaultEvent]:
        """Events sorted by time, ties broken by plan order (stable sort)."""
        return sorted(self.events, key=lambda event: event.time)

    def final_down_ids(self) -> List[int]:
        """Processes whose final state under the plan is crashed (sorted)."""
        down: Set[int] = set()
        for event in self._chronological():
            if type(event) is Crash:
                down.add(event.pid)
            elif type(event) is Recover:
                down.discard(event.pid)
        return sorted(down)

    def correct_ids(self, n: int) -> List[int]:
        """Processes that are *eventually up* under the plan, out of ``range(n)``."""
        down = set(self.final_down_ids())
        return [pid for pid in range(n) if pid not in down]

    def final_partition(self) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """The partition still in force at the end of the plan, or ``None``."""
        current: Optional[Tuple[Tuple[int, ...], ...]] = None
        for event in self._chronological():
            if type(event) is PartitionStart:
                current = event.groups
            elif type(event) is PartitionHeal:
                current = None
        return current

    def final_blocked_links(self) -> List[Tuple[int, int]]:
        """Directed links still blocked at the end of the plan (sorted)."""
        blocked: Set[Tuple[int, int]] = set()
        for event in self._chronological():
            if type(event) is LinkFault:
                key = (event.sender, event.dest)
                if event.block and event.until is None:
                    blocked.add(key)
                else:
                    blocked.discard(key)
            elif type(event) is LinkHeal:
                blocked.discard((event.sender, event.dest))
        return sorted(blocked)

    def final_corrupt_links(self) -> List[Tuple[int, int]]:
        """Directed links still corrupting *every* payload at the end (sorted).

        Only fully corrupting (``probability == 1``) unhealed links count: a
        probabilistic corrupter is fair-lossy for the data plane — intact
        copies eventually get through — and therefore not permanent damage.
        """
        corrupting: Set[Tuple[int, int]] = set()
        for event in self._chronological():
            if type(event) is CorruptLink:
                key = (event.sender, event.dest)
                if event.probability >= 1.0 and event.until is None:
                    corrupting.add(key)
                else:
                    corrupting.discard(key)
            elif type(event) is LinkHeal:
                corrupting.discard((event.sender, event.dest))
        return sorted(corrupting)

    def restarted_ids(self) -> List[int]:
        """Processes the plan restarts at least once (sorted).

        Without stable storage these are the *amnesic* acceptors: each restart
        wipes the promises and accepted values of its process.
        """
        return sorted({event.pid for event in self.events if type(event) is Recover})

    def amnesia_hazards(self, n: int, t: int) -> List[str]:
        """Explain how the plan can break agreement when storage is off.

        Consensus safety rests on quorum intersection: any two quorums of size
        ``n - t`` share at least ``n - 2t`` acceptors, and at least one of them
        must *remember* the accepted value of an earlier ballot.  A restart
        without stable storage wipes that memory, so once the plan restarts
        ``n - 2t`` or more distinct processes, there exist two quorums whose
        entire intersection is amnesic — a later ballot can then miss an
        accepted value and decide differently (the quorum-amnesia hazard; see
        ``tests/integration/test_quorum_amnesia.py`` for a deterministic
        schedule).  The check is deliberately conservative: it counts restarted
        processes, not whether message timing actually exploits them.

        Returns human-readable hazard descriptions — empty when the plan is
        amnesia-safe or when the system runs with stable storage (persisted
        promises make restarts memory-preserving, so the hazard vanishes; the
        sharded service only records hazards with its ``stable_storage`` knob
        off).

        Snapshots/compaction (:mod:`repro.storage.snapshot`) do **not** affect
        this reasoning in either direction.  A snapshot restores *applied*
        state, never an acceptor's promise memory, so a compacting replica
        without storage is exactly as amnesic as a non-compacting one — the
        hazard check is identical with the ``compaction`` knob on.  Conversely,
        truncating durable acceptor state below the snapshot floor does not
        *create* a hazard: those positions are decided, truncated replicas
        stay silent for them (indistinguishable from a crashed acceptor) —
        also for a ``Prepare`` whose range reaches below their floor — so a
        promise quorum that completes consists of acceptors still holding
        everything from the prepared position up.

        The acceptor's promise is one log-wide ballot (one durable key)
        rather than one per position; that changes what a storage-less
        restart forgets by nothing, so the count below is unchanged.
        """
        validate_process_count(n, t)
        restarted = self.restarted_ids()
        threshold = n - 2 * t
        if not restarted or len(restarted) < threshold:
            return []
        return [
            f"plan restarts {len(restarted)} processes {restarted} without stable "
            f"storage; any {threshold} of them can cover a quorum intersection "
            f"(quorums of {n - t} out of n={n} overlap in >= {threshold}), so "
            "back-to-back restarts can silently shrink a promise quorum and "
            "break agreement"
        ]

    def validate(self, n: int, t: int, require_quorum_memory: bool = False) -> None:
        """Check the plan against the system parameters.

        Raises ``ValueError`` when a pid is out of range, a :class:`Recover`
        targets a process that is not down, or more than ``t`` processes are down
        at any instant (the crash budget of ``AS_{n,t}``, generalised to
        crash-recovery as a bound on *concurrently* down processes).

        With ``require_quorum_memory=True`` the plan is additionally rejected
        when :meth:`amnesia_hazards` is non-empty — the admission mode for
        systems that run consensus *without* stable storage and cannot afford
        restarts eating into quorum intersections.  Leave it off (the default)
        when storage is on, or for workloads above the consensus layer's
        safety concerns (e.g. plain Omega runs, where restarts only delay
        stabilisation).
        """
        validate_process_count(n, t)

        def check_pid(pid: int, what: str) -> None:
            if not 0 <= pid < n:
                raise ValueError(f"{what} pid {pid} outside [0, {n})")

        down: Set[int] = set()
        for event in self._chronological():
            kind = type(event)
            if kind is Crash:
                check_pid(event.pid, "crashing")
                if event.pid in down:
                    raise ValueError(
                        f"process {event.pid} crashes at {event.time} while already down"
                    )
                down.add(event.pid)
                if len(down) > t:
                    raise ValueError(
                        f"plan has {len(down)} processes down at time {event.time} "
                        f"but t={t}"
                    )
            elif kind is Recover:
                check_pid(event.pid, "recovering")
                if event.pid not in down:
                    raise ValueError(
                        f"process {event.pid} recovers at {event.time} without being down"
                    )
                down.discard(event.pid)
            elif kind is PartitionStart:
                for group in event.groups:
                    for pid in group:
                        check_pid(pid, "partitioned")
            elif kind is LinkFault:
                check_pid(event.sender, "link sender")
                check_pid(event.dest, "link dest")
            elif kind is LinkHeal:
                check_pid(event.sender, "link sender")
                check_pid(event.dest, "link dest")
            elif kind is CorruptLink:
                check_pid(event.sender, "corrupting link sender")
                check_pid(event.dest, "corrupting link dest")
            elif kind is SlowProcess:
                check_pid(event.pid, "slowed")
        if require_quorum_memory:
            hazards = self.amnesia_hazards(n, t)
            if hazards:
                raise ValueError(
                    "plan is amnesia-unsafe without stable storage: "
                    + "; ".join(hazards)
                )

    def describe(self) -> str:
        """Human-readable one-line description (used in reports and demos)."""
        if not self.events:
            return "fault-plan(none)"
        parts = ", ".join(event.describe() for event in self._chronological())
        return f"fault-plan({parts})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.events!r})"


# ---------------------------------------------------------------------------- link state
class _LinkSpec:
    """Mutable fault state of one directed link (internal to :class:`LinkState`)."""

    __slots__ = ("block", "loss_probability", "delay_factor", "delay_add")

    def __init__(
        self,
        block: bool,
        loss_probability: float,
        delay_factor: float,
        delay_add: float,
    ) -> None:
        self.block = block
        self.loss_probability = loss_probability
        self.delay_factor = delay_factor
        self.delay_add = delay_add


class LinkState:
    """The current reachability / quality matrix of the directed links.

    Installed on a :class:`~repro.simulation.network.Network` only when the
    fault plan contains topology events, so fault-free and pure crash-stop runs
    pay nothing beyond a single ``is None`` check per message.  Loss decisions
    draw from a dedicated RNG stream (never the delay model's), so topology
    faults cannot perturb delay draws elsewhere in the run.
    """

    __slots__ = (
        "_component_of",
        "_corrupt",
        "_links",
        "_slow",
        "_rng",
    )

    def __init__(self, rng: RandomSource) -> None:
        self._component_of: Optional[Dict[int, int]] = None
        self._links: Dict[Tuple[int, int], _LinkSpec] = {}
        self._corrupt: Dict[Tuple[int, int], float] = {}
        self._slow: Dict[int, float] = {}
        self._rng = rng

    # ------------------------------------------------------------------ queries --
    def reachable(self, sender: int, dest: int) -> bool:
        """True when a message from *sender* can currently reach *dest*."""
        component_of = self._component_of
        if component_of is not None and component_of.get(sender) != component_of.get(dest):
            return False
        spec = self._links.get((sender, dest))
        return spec is None or not spec.block

    def adjust(self, sender: int, dest: int, delay: float) -> Optional[float]:
        """Transform a drawn *delay* for the link; ``None`` drops the message."""
        spec = self._links.get((sender, dest))
        if spec is not None:
            if spec.loss_probability and self._rng.random() < spec.loss_probability:
                return None
            delay = delay * spec.delay_factor + spec.delay_add
        slow = self._slow
        if slow:
            factor = slow.get(sender)
            if factor is not None:
                delay *= factor
            if dest != sender:  # self-deliveries are slowed once, not twice
                factor = slow.get(dest)
                if factor is not None:
                    delay *= factor
        return delay

    def maybe_corrupt(self, sender: int, dest: int, message: object) -> Optional[object]:
        """Return a tampered copy of *message* for this link, or ``None``.

        ``None`` means the link is not corrupting, the per-message probability
        draw spared this message, or the message carries no corruptible payload
        (Omega control traffic) — the caller delivers the original and records
        no corruption.  Draws come from the fault layer's dedicated RNG stream;
        a fully corrupting link (probability 1) draws only for the garble
        itself.
        """
        probability = self._corrupt.get((sender, dest))
        if probability is None:
            return None
        if probability < 1.0 and self._rng.random() >= probability:
            return None
        return corrupt_message(message, self._rng)

    def partition_groups(self, n: int) -> Optional[List[List[int]]]:
        """The partition currently in force as explicit pid groups, or ``None``."""
        if self._component_of is None:
            return None
        by_component: Dict[int, List[int]] = {}
        for pid in range(n):
            by_component.setdefault(self._component_of.get(pid, -1), []).append(pid)
        return [sorted(group) for _, group in sorted(by_component.items())]

    @property
    def partitioned(self) -> bool:
        """True while a partition is in force."""
        return self._component_of is not None

    # ------------------------------------------------------------------ mutation --
    def set_partition(self, groups: Tuple[Tuple[int, ...], ...], n: int) -> None:
        """Install a partition (replacing any current one).

        Processes not named by *groups* implicitly share one extra side.
        """
        component_of: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for pid in group:
                component_of[pid] = index
        rest = len(groups)
        for pid in range(n):
            component_of.setdefault(pid, rest)
        self._component_of = component_of

    def heal_partition(self) -> None:
        """Remove the partition currently in force."""
        self._component_of = None

    def set_link_fault(self, fault: LinkFault) -> None:
        """Install (or replace) the fault on the ``sender -> dest`` link."""
        self._links[(fault.sender, fault.dest)] = _LinkSpec(
            fault.block, fault.loss_probability, fault.delay_factor, fault.delay_add
        )

    def heal_link(self, sender: int, dest: int) -> None:
        """Restore the ``sender -> dest`` link to its nominal behaviour."""
        self._links.pop((sender, dest), None)

    def set_corruption(self, fault: CorruptLink) -> None:
        """Install (or replace) payload corruption on the ``sender -> dest`` link."""
        self._corrupt[(fault.sender, fault.dest)] = fault.probability

    def heal_corruption(self, sender: int, dest: int) -> None:
        """Stop corrupting payloads on the ``sender -> dest`` link."""
        self._corrupt.pop((sender, dest), None)

    def set_slowdown(self, pid: int, factor: float) -> None:
        """Install (``factor != 1``) or remove (``factor == 1``) a slowdown."""
        if factor == 1.0:
            self._slow.pop(pid, None)
        else:
            self._slow[pid] = factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkState(partitioned={self.partitioned}, "
            f"links={len(self._links)}, corrupt={len(self._corrupt)}, "
            f"slow={len(self._slow)})"
        )


# ---------------------------------------------------------------------------- injector
class FaultInjector:
    """Schedules a :class:`FaultPlan` on a system and applies its events.

    One injector is owned by one :class:`~repro.simulation.system.System`; it is
    the only object that crashes, recovers or re-wires that system at run time.
    Events may also be injected after construction (:meth:`inject`), e.g. by an
    adaptive test harness reacting to the execution — the plan object is kept in
    sync so correct-set queries always reflect every known event.
    """

    def __init__(self, system: "System", plan: FaultPlan) -> None:  # noqa: F821
        self._system = system
        self.plan = plan
        self.link_state: Optional[LinkState] = None
        #: Events that could not be applied at their scheduled time (e.g. a
        #: Recover whose target is not crashed because a same-timestamp race
        #: reordered it after injection): human-readable descriptions, mirroring
        #: adversary refusals.  Such events changed nothing — they must not be
        #: read as applied.
        self.rejections: List[str] = []
        # Monotone tokens guarding the auto-heals of `until`-bearing faults: a
        # scheduled heal only fires if no newer fault re-faulted the same link
        # (or re-slowed the same process) in the meantime.
        self._link_fault_tokens: Dict[Tuple[int, int], int] = {}
        self._corruption_tokens: Dict[Tuple[int, int], int] = {}
        self._slowdown_tokens: Dict[int, int] = {}
        if plan.has_topology_events():
            self._ensure_link_state()

    def _ensure_link_state(self) -> LinkState:
        if self.link_state is None:
            self.link_state = LinkState(
                self._system._master_rng.child("fault-links")
            )
            self._system.network.install_link_state(self.link_state)
        return self.link_state

    # ------------------------------------------------------------------ scheduling --
    def schedule_plan(self) -> None:
        """Schedule every event of the plan (called once by the system)."""
        for event in self.plan.events:
            self._schedule(event)

    def _schedule(self, event: FaultEvent) -> None:
        self._system.scheduler.schedule_at(event.time, self._apply, event)

    def inject(self, event: FaultEvent) -> None:
        """Add *event* to the plan at run time and schedule it.

        The event must lie in the future of the system's clock and keep the
        whole plan valid — the same checks the constructor runs (pids in range,
        no recovery of an up process, never more than ``t`` concurrently down)
        apply to injected events, so run-time injection cannot sneak past the
        ``AS_{n,t}`` budget.  Injecting an event bumps the system's fault epoch
        immediately (the *planned* correct set changed), so cached correct-set
        views refresh on next read.
        """
        if event.time < self._system.now:
            raise ValueError(
                f"cannot inject {event.describe()} in the past "
                f"(now={self._system.now})"
            )
        self.plan.add(event)
        try:
            self.plan.validate(self._system.config.n, self._system.config.t)
        except ValueError:
            self.plan.events.pop()
            raise
        if isinstance(event, _TOPOLOGY_EVENTS):
            self._ensure_link_state()
        self._schedule(event)
        self._system._bump_fault_epoch()

    # ------------------------------------------------------------------ application --
    def _apply(self, event: FaultEvent) -> None:
        system = self._system
        kind = type(event)
        if kind is Crash:
            system._apply_crash(event.pid)
        elif kind is Recover:
            if not system._apply_recover(event.pid):
                self.rejections.append(
                    f"{event.describe()} rejected: process {event.pid} is not crashed"
                )
        elif kind is PartitionStart:
            self._ensure_link_state().set_partition(event.groups, system.config.n)
            system._bump_fault_epoch()
        elif kind is PartitionHeal:
            self._ensure_link_state().heal_partition()
            system._bump_fault_epoch()
        elif kind is LinkFault:
            link_state = self._ensure_link_state()
            link_state.set_link_fault(event)
            key = (event.sender, event.dest)
            token = self._link_fault_tokens.get(key, 0) + 1
            self._link_fault_tokens[key] = token
            if event.until is not None:
                system.scheduler.schedule_at(
                    event.until, self._heal_link_cb, (key, token)
                )
            system._bump_fault_epoch()
        elif kind is LinkHeal:
            # An explicit heal restores the link to nominal behaviour in every
            # respect: loss/delay faults and payload corruption alike.
            link_state = self._ensure_link_state()
            link_state.heal_link(event.sender, event.dest)
            link_state.heal_corruption(event.sender, event.dest)
            system._bump_fault_epoch()
        elif kind is CorruptLink:
            link_state = self._ensure_link_state()
            link_state.set_corruption(event)
            key = (event.sender, event.dest)
            token = self._corruption_tokens.get(key, 0) + 1
            self._corruption_tokens[key] = token
            if event.until is not None:
                system.scheduler.schedule_at(
                    event.until, self._heal_corruption_cb, (key, token)
                )
            system._bump_fault_epoch()
        elif kind is SlowProcess:
            link_state = self._ensure_link_state()
            link_state.set_slowdown(event.pid, event.factor)
            token = self._slowdown_tokens.get(event.pid, 0) + 1
            self._slowdown_tokens[event.pid] = token
            if event.until is not None:
                system.scheduler.schedule_at(
                    event.until, self._end_slowdown_cb, (event.pid, token)
                )
            system._bump_fault_epoch()
        else:  # pragma: no cover - future event kinds
            raise TypeError(f"unknown fault event {event!r}")

    def _heal_link_cb(self, arg: Tuple[Tuple[int, int], int]) -> None:
        key, token = arg
        # Only the *latest* fault on this link may auto-heal it: if a newer
        # LinkFault re-faulted the link inside this fault's window, its token is
        # higher and this expired heal must not remove it.
        if self._link_fault_tokens.get(key) == token:
            self.link_state.heal_link(*key)
            self._system._bump_fault_epoch()

    def _end_slowdown_cb(self, arg: Tuple[int, int]) -> None:
        pid, token = arg
        if self._slowdown_tokens.get(pid) == token:
            self.link_state.set_slowdown(pid, 1.0)
            self._system._bump_fault_epoch()

    def _heal_corruption_cb(self, arg: Tuple[Tuple[int, int], int]) -> None:
        key, token = arg
        if self._corruption_tokens.get(key) == token:
            self.link_state.heal_corruption(*key)
            self._system._bump_fault_epoch()


__all__ = [
    "CorruptLink",
    "Crash",
    "EVENT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LinkFault",
    "LinkHeal",
    "LinkState",
    "PartitionHeal",
    "PartitionStart",
    "Recover",
    "SlowProcess",
    "event_from_dict",
    "event_to_dict",
]

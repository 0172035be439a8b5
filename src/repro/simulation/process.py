"""Binding between an algorithm object and the simulator.

:class:`SimProcessShell` is the simulator-side implementation of
:class:`~repro.core.interfaces.Environment`.  One shell wraps one
:class:`~repro.core.interfaces.Process` (the algorithm), gives it its identity, its
timers, its links and its local randomness, and enforces the failure model: once
:meth:`crash` has been called the process takes no further steps — no timer fires,
no message is delivered, nothing is sent — until (in crash-recovery plans) the
fault injector calls :meth:`recover` with a freshly built algorithm object, which
restarts the process under a new *incarnation* — from its initial state, or from
its rehydrated durable state when the system runs with stable storage
(:mod:`repro.storage`).  Timers armed by a previous incarnation never fire after
a recovery.

Hot-path design
---------------
``broadcast`` forwards the whole fan-out to the network's native
:meth:`~repro.simulation.network.Network.broadcast` (destination tuples are
precomputed at construction), and ``set_timer`` hands the scheduler a
``(bound method, handle)`` pair instead of a lambda, attaching the scheduler event
to the handle itself — no per-timer registry entry.  Crash-stop is enforced by the
``crashed`` guard in :meth:`_fire_timer`, so a crash does not need to hunt down
in-flight timer events (they fire later as cheap no-ops and are never re-armed).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.core.interfaces import Environment, LeaderOracle, Message, Process, TimerHandle, fold_counters
from repro.simulation.network import Network
from repro.simulation.scheduler import EventScheduler
from repro.util.rng import RandomSource
from repro.util.validation import require_non_negative

#: Attribute attached to a TimerHandle holding its scheduler event (see set_timer).
_SIM_EVENT_ATTR = "_sim_event"
#: Attribute attached to a TimerHandle naming the incarnation that armed it.
_SIM_INCARNATION_ATTR = "_sim_incarnation"


def _leader_of(algorithm: Process) -> Optional[Callable[[], int]]:
    """The callable answering *algorithm*'s ``leader()`` (its
    :meth:`~repro.core.interfaces.LeaderOracle.leader_callable`), or ``None``
    when the algorithm is not a :class:`~repro.core.interfaces.LeaderOracle`."""
    return algorithm.leader_callable() if isinstance(algorithm, LeaderOracle) else None


class SimProcessShell(Environment):
    """Simulator-side home of a single process."""

    def __init__(
        self,
        pid: int,
        algorithm: Process,
        scheduler: EventScheduler,
        network: Network,
        process_ids: Sequence[int],
        rng: RandomSource,
        tracer: Optional[object] = None,
    ) -> None:
        self._pid = pid
        self.algorithm = algorithm
        # Cached bound handlers of the current incarnation's algorithm: one
        # attribute read per delivery/timer instead of two (refreshed by
        # :meth:`recover` when the algorithm object is swapped).
        self._on_message = algorithm.on_message
        self._on_timer = algorithm.on_timer
        #: The current incarnation's ``leader()`` callable, or ``None`` when
        #: the algorithm is not a leader oracle (refreshed by :meth:`recover`).
        self.leader_lookup = _leader_of(algorithm)
        self._scheduler = scheduler
        self._network = network
        self._process_ids = tuple(process_ids)
        #: Broadcast destination tuples, precomputed once.
        self._peers = tuple(p for p in self._process_ids if p != pid)
        self._rng = rng
        self._tracer = tracer

        self.crashed = False
        self.crash_time: Optional[float] = None
        self.started = False
        #: Number of completed recoveries; 0 in every crash-stop run.  Doubles as
        #: the current incarnation number: timers armed by incarnation ``k`` are
        #: silently discarded once a recovery moves the shell to ``k+1``.
        self.recoveries = 0
        # Stable-storage write cost accrued during the current handler turn
        # (identified by the scheduler's executed-event count); added to the
        # delay of every message this turn still sends — fsync before reply.
        self._write_debt = 0.0
        self._write_debt_turn = -1

        network.register(pid, self._deliver, self.is_alive)

    # ------------------------------------------------------------------ identity --
    @property
    def pid(self) -> int:
        return self._pid

    @property
    def process_ids(self) -> Sequence[int]:
        return self._process_ids

    @property
    def now(self) -> float:
        return self._scheduler.now

    @property
    def random(self) -> RandomSource:
        return self._rng

    def is_alive(self) -> bool:
        """Return True while the process has not crashed."""
        return not self.crashed

    # ------------------------------------------------------------------ lifecycle --
    def start(self) -> None:
        """Run the algorithm's ``on_start`` handler (called once by the system)."""
        if self.started:
            raise RuntimeError(f"process {self._pid} already started")
        self.started = True
        if self.crashed:
            return
        self.log("process_started")
        self.algorithm.on_start(self)

    def crash(self) -> None:
        """Crash the process: silence it forever.

        Already-scheduled timer events are left in the queue; they are discarded
        by the ``crashed`` guard in :meth:`_fire_timer` when they come up (and
        periodic timers are never re-armed), which keeps ``crash`` O(1) instead of
        walking a timer registry.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_time = self.now
        self.log("process_crashed")
        self.algorithm.on_crash(self)

    def recover(self, algorithm: Process) -> None:
        """Restart the crashed process with the freshly built *algorithm*.

        The new incarnation starts from the state of the *algorithm* object the
        system hands over: factory-fresh under crash recovery without stable
        storage, or rehydrated from the process's
        :class:`~repro.storage.stable_store.StableStore` when the system was
        built with ``storage=`` (the system attaches the store — replaying the
        durable state — before calling this).  Timers armed before the crash
        are lazily discarded by the incarnation check in :meth:`_fire_timer`;
        messages that were in flight towards this process when it was down are
        delivered to the new incarnation if their delivery time falls after the
        recovery (the link held them), exactly like messages sent to a process
        that never crashed.

        Before the swap, the dying incarnation's counter registry is folded
        into the newcomer's (which may already hold what rehydration counted):
        counts belong to the process, so ``algorithm.counters`` always covers
        every incarnation so far.
        """
        if not self.crashed:
            return
        fold_counters(algorithm.counters, self.algorithm.counters)
        self.recoveries += 1
        self.crashed = False
        self.crash_time = None
        self.algorithm = algorithm
        self._on_message = algorithm.on_message
        self._on_timer = algorithm.on_timer
        self.leader_lookup = _leader_of(algorithm)
        self.started = True
        self.log("process_recovered", incarnation=self.recoveries)
        algorithm.on_start(self)

    def stop(self) -> None:
        """Notify the algorithm that the run is over (correct processes only)."""
        if not self.crashed:
            self.algorithm.on_stop(self)

    # ------------------------------------------------------------------ storage --
    def charge_storage_write(self, cost: float) -> None:
        """Charge a durable write's *cost* on the virtual clock.

        Bound by the system to this process's stable store (see
        :meth:`~repro.storage.stable_store.StableStore.bind_charge`): the costs
        of the writes performed during the current handler turn accumulate and
        are added to the delay of every message the turn still sends — the
        discrete-event rendering of *fsync before reply*.  Debt never leaks
        across turns (virtual time between events absorbs the stall), and
        timers are unaffected (a local clock ticks through an fsync).
        """
        if cost <= 0.0:
            return
        turn = self._scheduler.executed
        if turn != self._write_debt_turn:
            self._write_debt = 0.0
            self._write_debt_turn = turn
        self._write_debt += cost

    def _pending_write_debt(self) -> float:
        """Write cost accrued in the current handler turn (0.0 on the hot path).

        Stale debt from an earlier turn is zeroed here, so the ``_write_debt``
        fast-path check in :meth:`send` / :meth:`broadcast` goes back to a
        single falsy read once the writing turn is over.
        """
        if self._write_debt_turn == self._scheduler.executed:
            return self._write_debt
        self._write_debt = 0.0
        return 0.0

    # ------------------------------------------------------------------ messaging --
    def send(self, dest: int, message: Message) -> None:
        if self.crashed:
            return
        if self._write_debt:
            self._network.send(
                self._pid, dest, message, extra_delay=self._pending_write_debt()
            )
        else:
            self._network.send(self._pid, dest, message)

    def broadcast(self, message: Message, include_self: bool = False) -> None:
        """Send *message* to every process through the network's native fan-out.

        Destination order matches the base-class loop (ascending process id), so
        per-destination delay draws — and therefore whole executions — are
        identical to the loop-of-sends semantics.
        """
        if self.crashed:
            return
        dests = self._process_ids if include_self else self._peers
        if self._write_debt:
            self._network.broadcast(
                self._pid, dests, message, extra_delay=self._pending_write_debt()
            )
        else:
            self._network.broadcast(self._pid, dests, message)

    def _deliver(self, sender: int, message: Message) -> None:
        if self.crashed:
            return
        self._on_message(self, sender, message)

    # ------------------------------------------------------------------ timers --
    def set_timer(self, delay: float, name: str, payload: Any = None) -> TimerHandle:
        require_non_negative(delay, "delay")
        handle = TimerHandle(name=name, fires_at=self.now + delay, payload=payload)
        if self.crashed:
            # A crashed process cannot arm timers; return an already-cancelled handle
            # so defensive callers do not blow up.
            handle.cancel()
            return handle
        setattr(
            handle,
            _SIM_EVENT_ATTR,
            self._scheduler.schedule_after(delay, self._fire_timer, handle),
        )
        if self.recoveries:
            # Only recovered shells stamp the incarnation: crash-stop runs skip
            # the extra setattr, and pre-recovery handles simply lack the
            # attribute (read back as incarnation 0 by _fire_timer).
            setattr(handle, _SIM_INCARNATION_ATTR, self.recoveries)
        return handle

    def cancel_timer(self, handle: TimerHandle) -> None:
        handle.cancel()
        event = getattr(handle, _SIM_EVENT_ATTR, None)
        if event is not None:
            self._scheduler.cancel(event)
            # Break the handle <-> event cycle (see _fire_timer).
            setattr(handle, _SIM_EVENT_ATTR, None)

    def _fire_timer(self, handle: TimerHandle) -> None:
        # The event's ``arg`` is the handle and the handle holds the event: a
        # reference cycle, so drop the handle's side now that the event has
        # been popped — a fired handle is then freed by reference count, not
        # kept for the cyclic collector (which timing runs switch off).
        setattr(handle, _SIM_EVENT_ATTR, None)
        if self.crashed or handle.cancelled:
            return
        if self.recoveries and getattr(handle, _SIM_INCARNATION_ATTR, 0) != self.recoveries:
            # Armed by a previous incarnation; the recovery reset the algorithm.
            return
        self._on_timer(self, handle)

    # ------------------------------------------------------------------ tracing --
    def log(self, kind: str, **details: Any) -> None:
        if self._tracer is not None:
            self._tracer.record(self.now, self._pid, kind, **details)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "alive"
        return f"SimProcessShell(pid={self._pid}, {state}, {self.algorithm!r})"

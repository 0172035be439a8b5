"""Runtime-agnostic process and environment interfaces.

The paper's algorithms are described as message-driven tasks executed by each process
of an asynchronous system.  In this library every algorithm (the paper's Figures 1-3,
the ``A_{f,g}`` variant, the baselines and the consensus layer) is a subclass of
:class:`Process` that interacts with the outside world exclusively through an
:class:`Environment`.  Two environments are provided:

* the deterministic discrete-event simulator (:mod:`repro.simulation`), used by every
  test, example and benchmark; and
* a real-time asyncio runtime (:mod:`repro.runtime`).

Keeping the algorithms independent of the runtime is what makes the reproduction both
testable (simulated virtual time) and deployable (asyncio wall-clock time) with a
single implementation of each protocol.
"""

from __future__ import annotations

import abc
import dataclasses
import itertools
import sys
import types
from typing import Any, Callable, Dict, Mapping, Sequence

from repro.util.rng import RandomSource


@dataclasses.dataclass(frozen=True)
class Message:
    """Base class for every protocol message.

    Concrete messages are frozen dataclasses; freezing makes accidental in-place
    mutation of a message that is still in flight impossible (the simulator delivers
    the same object to the destination rather than a copy).  The empty
    ``__slots__`` here is what lets ``slots=True`` subclasses actually shed the
    per-instance dict: a single dict-backed base in the MRO would re-grow it.
    """

    __slots__ = ()

    @property
    def tag(self) -> str:
        """A short tag naming the message type (used for accounting and tracing).

        The tag is derived from the class name once, interned, and cached on the
        class: accounting code compares and hashes tags on every simulated
        message, so handing out the same string object every time keeps those
        dict operations at pointer speed.
        """
        cls = type(self)
        tag = cls.__dict__.get("_tag_cache")
        if tag is None:
            tag = sys.intern(cls.__name__.upper())
            cls._tag_cache = tag
        return tag


_timer_ids = itertools.count(1)


@dataclasses.dataclass
class TimerHandle:
    """Handle returned by :meth:`Environment.set_timer`.

    Attributes
    ----------
    timer_id:
        Unique (per run) identifier.
    name:
        Caller-chosen name; the algorithm's ``on_timer`` dispatches on it.
    fires_at:
        Absolute time at which the timer fires.
    payload:
        Optional caller data carried back to ``on_timer``.
    cancelled:
        True once the timer has been cancelled; a cancelled timer never fires.
    """

    name: str
    fires_at: float
    payload: Any = None
    cancelled: bool = False
    timer_id: int = dataclasses.field(default_factory=lambda: next(_timer_ids))

    def cancel(self) -> None:
        """Mark the timer as cancelled (the runtime also drops its event)."""
        self.cancelled = True


class Environment(abc.ABC):
    """The world as seen by a single process.

    An environment is bound to one process (its :attr:`pid`) and exposes the only
    operations the paper's model allows: reading the local clock, sending messages,
    and arming local timers.  The global time base is *not* observable by algorithms
    beyond measuring local intervals, exactly as in the paper's model (processes have
    accurate interval clocks but no synchronised clocks).
    """

    @property
    @abc.abstractmethod
    def pid(self) -> int:
        """Identifier of the process this environment is bound to."""

    @property
    @abc.abstractmethod
    def process_ids(self) -> Sequence[int]:
        """Identifiers of all processes of the system (known membership)."""

    @property
    def n(self) -> int:
        """Total number of processes in the system."""
        return len(self.process_ids)

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current local time (virtual time in the simulator, wall clock in asyncio)."""

    @abc.abstractmethod
    def send(self, dest: int, message: Message) -> None:
        """Send *message* to process *dest* over the (reliable, non-FIFO) link."""

    def broadcast(self, message: Message, include_self: bool = False) -> None:
        """Send *message* to every process (optionally including the sender).

        The default implementation is a loop of point-to-point sends, matching the
        paper's ``for each j != i do send ... to p_j``.  Runtimes may override it
        with a semantically identical native fan-out — the simulator's
        :class:`~repro.simulation.process.SimProcessShell` forwards the whole
        fan-out to :meth:`repro.simulation.network.Network.broadcast`, and the
        consensus stack puts an ``ALIVE`` in its heartbeat header once per
        broadcast instead of once per destination.  Destination order (ascending
        process id) and the one-delay-decision-per-destination contract are part
        of the semantics; overrides must preserve both so executions stay
        deterministic.
        """
        for dest in self.process_ids:
            if dest == self.pid and not include_self:
                continue
            self.send(dest, message)

    @abc.abstractmethod
    def set_timer(
        self, delay: float, name: str, payload: Any = None
    ) -> TimerHandle:
        """Arm a local timer that fires after *delay* local time units."""

    @abc.abstractmethod
    def cancel_timer(self, handle: TimerHandle) -> None:
        """Cancel a previously armed timer (no-op if it already fired)."""

    @property
    @abc.abstractmethod
    def random(self) -> RandomSource:
        """Per-process deterministic random source."""

    def log(self, kind: str, **details: Any) -> None:
        """Record a trace event (no-op unless the runtime installs a tracer)."""


#: Counter names that are high-water marks: wherever registries are combined
#: they fold with ``max``.  Every other name is an event count and sums.
HIGH_WATER_COUNTERS = frozenset({"peak_decided_residency", "peak_susp_level"})


def fold_counters(total: Dict[str, int], part: Mapping[str, int]) -> None:
    """Fold the counter registry *part* into *total*, in place.

    The one rule for combining counts — a dying incarnation into its successor
    (:meth:`~repro.simulation.process.SimProcessShell.recover`), processes into
    a service total, shards into a parallel-run report.
    """
    for name, value in part.items():
        if name in HIGH_WATER_COUNTERS:
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


class Process(abc.ABC):
    """Base class for every distributed algorithm in the library.

    Subclasses implement the three event handlers below.  Handlers execute atomically
    with respect to each other (the paper assumes local statements take no time);
    both runtimes guarantee that at most one handler of a given process runs at a
    time.
    """

    #: The process's counter registry, a flat ``name -> int`` mapping.  An
    #: algorithm that counts creates a ``collections.Counter`` in its
    #: constructor and increments it where the event happens
    #: (``self.counters["ballots_started"] += 1``); a composite shares one
    #: mapping with all of its parts.  Counts belong to the process, not the
    #: incarnation: a recovery folds the dying incarnation's registry into its
    #: successor's, so nothing else is needed for a count to survive restarts.
    #: Observers only — protocol logic never reads a count.  (This class-level
    #: default is the empty registry of an algorithm that counts nothing.)
    counters: Mapping[str, int] = types.MappingProxyType({})

    def on_start(self, env: Environment) -> None:
        """Called once, before any message is delivered to the process."""

    @abc.abstractmethod
    def on_message(self, env: Environment, sender: int, message: Message) -> None:
        """Called on reception of *message* sent by *sender*."""

    def on_timer(self, env: Environment, timer: TimerHandle) -> None:
        """Called when a timer armed through ``env.set_timer`` fires."""

    def on_crash(self, env: Environment) -> None:
        """Called when the process crashes (for bookkeeping only; optional)."""

    def on_stop(self, env: Environment) -> None:
        """Called when the run ends and the process is still alive (optional)."""


class LeaderOracle(abc.ABC):
    """Interface of the Omega failure-detector oracle.

    ``leader()`` may be invoked at any time by an upper layer; the Omega specification
    (eventual leadership) states that there is a time after which every invocation at
    every correct process returns the identity of the same correct process.
    """

    @abc.abstractmethod
    def leader(self) -> int:
        """Return the identifier of the process currently trusted as leader."""

    def leader_callable(self) -> Callable[[], int]:
        """The callable that answers :meth:`leader`, for holders that ask often
        (a simulator shell resolves it once per incarnation).

        An oracle whose ``leader()`` only delegates returns its delegate's
        callable, so the holder skips the delegation frames; a subclass that
        overrides ``leader()`` must override this too.
        """
        return self.leader

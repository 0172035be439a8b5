"""Reliable, non-FIFO message-passing network.

The network implements the paper's communication model: every ordered pair of
processes is connected by a directed link that neither creates, alters nor loses
messages, imposes no bound on transfer delays and is not required to be FIFO.  Delays
are decided per message by a :class:`~repro.simulation.delays.DelayModel`; since two
messages on the same link may receive different delays, deliveries naturally reorder,
which exercises the non-FIFO part of the model.

Messages addressed to a crashed process are discarded at delivery time (receiving is
a local step the crashed process no longer executes); messages *from* a process that
crashed after sending are still delivered, matching the model in which a send that
completed before the crash is effective.

The fault layer can degrade links below the paper's model: when a
:class:`~repro.simulation.faults.LinkState` matrix is installed (only for fault
plans with topology events), each send first consults it — unreachable
destinations are dropped before a delay is drawn, faulted links lose or slow
messages, and corrupting links replace the payload with a garbled copy
(:mod:`repro.simulation.corruption`) while still delivering on time.

Hot-path design
---------------
The paper's algorithms broadcast an ALIVE every period and a SUSPICION every round
— n² messages per period whether or not anyone is suspected (the ALIVE half alone
once ``OmegaConfig.quiet_rounds`` silences the rounds that suspect nobody) — so
per-message cost dominates simulated throughput.  Three choices keep one message
cheap:

* :meth:`Network.broadcast` is the native fan-out entry point: the innermost tag and
  round number of the (possibly wrapped) message are computed **once** per broadcast
  and shared by every destination, instead of re-walking the envelope chain per
  destination as a loop of :meth:`Network.send` calls would.
* :class:`Envelope` is a plain ``__slots__`` object that carries its precomputed
  ``tag``, and is handed directly to the scheduler as the event argument — no
  closure, no dict, and delivery never re-derives the tag.
* :class:`NetworkStats` keeps plain integer counters keyed by interned tags (dict
  views are materialised lazily), and trace bookkeeping is skipped entirely when no
  tracer is installed.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.composition import unwrap_round_number, unwrap_tag
from repro.core.interfaces import Message
from repro.simulation.delays import DelayModel, MessageContext
from repro.simulation.scheduler import EventScheduler


class Envelope:
    """A message in flight.

    A slotted record rather than a dataclass: one envelope is allocated per
    (message, destination) pair on the simulator's hottest path, and it doubles as
    the scheduler event argument.  ``tag`` is the innermost protocol tag, computed
    once at send time and reused by delivery-time accounting.
    """

    __slots__ = (
        "msg_id",
        "sender",
        "dest",
        "message",
        "send_time",
        "deliver_time",
        "tag",
        "corrupted",
    )

    def __init__(
        self,
        msg_id: int,
        sender: int,
        dest: int,
        message: Message,
        send_time: float,
        deliver_time: float,
        tag: str,
        corrupted: bool = False,
    ) -> None:
        self.msg_id = msg_id
        self.sender = sender
        self.dest = dest
        self.message = message
        self.send_time = send_time
        self.deliver_time = deliver_time
        self.tag = tag
        self.corrupted = corrupted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope(msg_id={self.msg_id}, {self.sender}->{self.dest}, "
            f"tag={self.tag!r}, deliver_time={self.deliver_time})"
        )


class NetworkStats:
    """Message accounting used by the cost experiments (E6, E9).

    Counters are plain ``dict[str, int]`` updated inline (the per-message cost is
    one dict increment and an integer add); the public ``*_by_tag`` attributes of
    the original API are exposed as lazily materialised
    :class:`collections.Counter` views, so ``as_dict()`` output and
    ``stats.sent_by_tag["ALIVE"]``-style reads are unchanged.
    """

    __slots__ = (
        "_sent_by_tag",
        "_delivered_by_tag",
        "_dropped_by_tag",
        "_corrupted_by_tag",
        "_total_sent",
        "_total_delivered",
        "_total_dropped",
        "_total_corrupted",
        "_corrupted_delivered",
        "total_delay",
        "max_delay",
    )

    def __init__(self) -> None:
        self._sent_by_tag: Dict[str, int] = {}
        self._delivered_by_tag: Dict[str, int] = {}
        self._dropped_by_tag: Dict[str, int] = {}
        self._corrupted_by_tag: Dict[str, int] = {}
        self._total_sent = 0
        self._total_delivered = 0
        self._total_dropped = 0
        self._total_corrupted = 0
        self._corrupted_delivered = 0
        self.total_delay = 0.0
        self.max_delay = 0.0

    # -- lazy dict views (API-compatible with the former Counter attributes) ------
    @property
    def sent_by_tag(self) -> Counter:
        """Messages handed to the network, per innermost tag."""
        return Counter(self._sent_by_tag)

    @property
    def delivered_by_tag(self) -> Counter:
        """Messages delivered to a live process, per innermost tag."""
        return Counter(self._delivered_by_tag)

    @property
    def dropped_by_tag(self) -> Counter:
        """Messages dropped (lossy links or destination crashed), per tag."""
        return Counter(self._dropped_by_tag)

    @property
    def corrupted_by_tag(self) -> Counter:
        """Messages whose payload was tampered in flight, per innermost tag."""
        return Counter(self._corrupted_by_tag)

    @property
    def total_sent(self) -> int:
        """Total number of messages handed to the network."""
        return self._total_sent

    @property
    def total_delivered(self) -> int:
        """Total number of messages delivered to a live process."""
        return self._total_delivered

    @property
    def total_dropped(self) -> int:
        """Messages dropped (lossy links or destination crashed)."""
        return self._total_dropped

    @property
    def total_corrupted(self) -> int:
        """Messages whose payload was tampered in flight.

        Counted at send time, when a :class:`~repro.simulation.faults.CorruptLink`
        actually garbled the payload; the receiving side's integrity check is
        what turns these deliveries into rejections (see
        the log's ``corruption_rejections`` counter)."""
        return self._total_corrupted

    @property
    def corrupted_delivered(self) -> int:
        """Tampered messages actually handed to an alive destination.

        At most :attr:`total_corrupted` (a tampered message addressed to a
        crashed process is dropped like any other).  Unlike the receiver-side
        rejection counters, this network-side count survives crash-recovery
        (a recovered process restarts its algorithm — and its counters — from
        the initial state)."""
        return self._corrupted_delivered

    @property
    def mean_delay(self) -> float:
        """Mean transfer delay over delivered messages."""
        delivered = self._total_delivered
        return self.total_delay / delivered if delivered else 0.0

    # -- recording (hot path) ------------------------------------------------------
    def record_sent(self, tag: str, count: int = 1) -> None:
        """Count *count* messages with *tag* handed to the network."""
        self._total_sent += count
        by_tag = self._sent_by_tag
        by_tag[tag] = by_tag.get(tag, 0) + count

    def record_delivered(self, tag: str, delay: float) -> None:
        self._total_delivered += 1
        by_tag = self._delivered_by_tag
        by_tag[tag] = by_tag.get(tag, 0) + 1
        self.total_delay += delay
        if delay > self.max_delay:
            self.max_delay = delay

    def record_dropped(self, tag: str) -> None:
        self._total_dropped += 1
        by_tag = self._dropped_by_tag
        by_tag[tag] = by_tag.get(tag, 0) + 1

    def record_corrupted(self, tag: str) -> None:
        self._total_corrupted += 1
        by_tag = self._corrupted_by_tag
        by_tag[tag] = by_tag.get(tag, 0) + 1

    def record_corrupted_delivered(self) -> None:
        self._corrupted_delivered += 1

    def as_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly summary."""
        return {
            "sent": dict(self._sent_by_tag),
            "delivered": dict(self._delivered_by_tag),
            "dropped": dict(self._dropped_by_tag),
            "corrupted": dict(self._corrupted_by_tag),
            "total_sent": self._total_sent,
            "total_delivered": self._total_delivered,
            "total_dropped": self._total_dropped,
            "total_corrupted": self._total_corrupted,
            "corrupted_delivered": self._corrupted_delivered,
            "mean_delay": self.mean_delay,
            "max_delay": self.max_delay,
        }


#: Callback invoked at delivery time: (sender, message) -> None.
DeliveryCallback = Callable[[int, Message], None]
#: Callback telling the network whether a destination is still alive.
LivenessCallback = Callable[[], bool]


class Network:
    """Message transport between the simulated processes."""

    def __init__(
        self,
        scheduler: EventScheduler,
        delay_model: DelayModel,
        tracer: Optional[object] = None,
    ) -> None:
        self._scheduler = scheduler
        self.delay_model = delay_model
        self._tracer = tracer
        self._deliver: Dict[int, DeliveryCallback] = {}
        self._is_alive: Dict[int, LivenessCallback] = {}
        #: pid -> (is_alive, deliver): one dict hit per delivery instead of two.
        self._endpoints: Dict[int, tuple] = {}
        # Messages are scheduled through the queue's raw push (deliver_time is
        # ``now + delay`` with delay >= 0, so the schedule_at validation is
        # redundant on this path).
        self._push_event = scheduler.push_event
        self._msg_ids = itertools.count(1)
        self._registered_ids: List[int] = []
        # Reachability/quality matrix; installed by the fault injector only when
        # the fault plan contains topology events, so fault-free and pure
        # crash-stop runs pay a single ``is None`` check per message.
        self._link_state = None
        self.stats = NetworkStats()

    # ------------------------------------------------------------------ wiring --
    def register(
        self, pid: int, deliver: DeliveryCallback, is_alive: LivenessCallback
    ) -> None:
        """Register the delivery endpoint of process *pid*."""
        if pid in self._deliver:
            raise ValueError(f"process {pid} already registered with the network")
        self._deliver[pid] = deliver
        self._is_alive[pid] = is_alive
        self._endpoints[pid] = (is_alive, deliver)
        self._registered_ids = sorted(self._deliver)

    @property
    def registered_ids(self) -> list:
        """Return the registered process ids (sorted; cached at registration)."""
        return list(self._registered_ids)

    def install_link_state(self, link_state) -> None:
        """Install the :class:`~repro.simulation.faults.LinkState` matrix.

        From this call on, every send consults *link_state* before the delay
        model draws a delay: unreachable destinations drop the message without a
        draw, and reachable ones have their drawn delay transformed (inflation,
        probabilistic loss on faulted links).
        """
        self._link_state = link_state

    @property
    def link_state(self):
        """The installed link-state matrix, or ``None`` (healthy topology)."""
        return self._link_state

    # ------------------------------------------------------------------ transport --
    def send(
        self, sender: int, dest: int, message: Message, extra_delay: float = 0.0
    ) -> Optional[Envelope]:
        """Send *message* from *sender* to *dest*.

        ``extra_delay`` is added to the drawn delay (after link adjustments);
        the stable-storage layer uses it to charge durable-write costs on the
        messages of the writing handler turn (fsync before reply).  It never
        affects loss decisions or RNG draws, so passing 0.0 is byte-identical
        to not passing it.

        Returns the in-flight :class:`Envelope`, or ``None`` when the delay model
        dropped the message (lossy links only).
        """
        if dest not in self._deliver:
            raise KeyError(f"destination process {dest} is not registered")
        tag = unwrap_tag(message)
        self.stats.record_sent(tag)
        return self._dispatch(
            sender,
            dest,
            message,
            tag,
            unwrap_round_number(message),
            self._scheduler.now,
            extra_delay,
        )

    def broadcast(
        self,
        sender: int,
        dests: Sequence[int],
        message: Message,
        extra_delay: float = 0.0,
    ) -> List[Optional[Envelope]]:
        """Send *message* from *sender* to every process in *dests*.

        Semantically identical to a loop of :meth:`send` calls over *dests* (one
        independent delay decision per destination, in order; per-destination
        drops; identical stats), but the envelope walk — innermost tag and round
        number of a possibly :class:`~repro.core.messages.Wrapped` message — is
        done once and shared by the whole fan-out.

        Returns the per-destination in-flight envelopes (``None`` where the delay
        model dropped the message).
        """
        if not dests:
            # Parity with the loop-of-sends path: no stats entries, not even
            # zero-count tag/sender keys.
            return []
        deliver = self._deliver
        for dest in dests:
            if dest not in deliver:
                raise KeyError(f"destination process {dest} is not registered")
        tag = unwrap_tag(message)
        rn = unwrap_round_number(message)
        now = self._scheduler.now
        self.stats.record_sent(tag, count=len(dests))
        dispatch = self._dispatch
        return [
            dispatch(sender, dest, message, tag, rn, now, extra_delay)
            for dest in dests
        ]

    def _dispatch(
        self,
        sender: int,
        dest: int,
        message: Message,
        tag: str,
        round_number: Optional[int],
        send_time: float,
        extra_delay: float = 0.0,
    ) -> Optional[Envelope]:
        """Decide the delay of one (message, destination) pair and schedule delivery.

        ``record_sent`` has already been done by the caller (once per destination
        for :meth:`send`, in bulk for :meth:`broadcast`).

        Reachability is decided here, at send time: a message blocked by the
        current partition / link cut is lost even if the fault heals before the
        delay model would have delivered it, and a message already in flight
        when a fault starts is unaffected.
        """
        link_state = self._link_state
        if link_state is not None and not link_state.reachable(sender, dest):
            self.stats.record_dropped(tag)
            if self._tracer is not None:
                self._tracer.record(
                    send_time,
                    sender,
                    "message_dropped",
                    tag=tag,
                    dest=dest,
                    reason="unreachable",
                )
            return None
        delay = self.delay_model.delay(
            MessageContext(
                sender=sender,
                dest=dest,
                tag=tag,
                round_number=round_number,
                send_time=send_time,
            )
        )
        if delay is not None and link_state is not None:
            delay = link_state.adjust(sender, dest, delay)
        if delay is None:
            self.stats.record_dropped(tag)
            if self._tracer is not None:
                self._tracer.record(
                    send_time, sender, "message_dropped", tag=tag, dest=dest
                )
            return None
        if delay < 0:
            raise ValueError(
                f"delay model {self.delay_model.describe()} returned negative delay "
                f"{delay} for {tag} {sender}->{dest}"
            )
        if extra_delay:
            # Stable-storage write cost: the sender fsynced before this send,
            # so the message leaves — and arrives — that much later.
            delay += extra_delay
        corrupted = False
        if link_state is not None:
            # Corrupting links tamper with the payload but still deliver: the
            # garbled copy replaces the message for *this* destination only
            # (broadcast envelopes are shared, so a fresh object is built).
            tampered = link_state.maybe_corrupt(sender, dest, message)
            if tampered is not None:
                message = tampered
                corrupted = True
                self.stats.record_corrupted(tag)
                if self._tracer is not None:
                    self._tracer.record(
                        send_time, sender, "message_corrupted", tag=tag, dest=dest
                    )
        envelope = Envelope(
            next(self._msg_ids),
            sender,
            dest,
            message,
            send_time,
            send_time + delay,
            tag,
            corrupted,
        )
        self._push_event(envelope.deliver_time, self._deliver_envelope, envelope)
        if self._tracer is not None:
            self._tracer.record(
                send_time,
                sender,
                "message_sent",
                tag=tag,
                dest=dest,
                deliver_time=envelope.deliver_time,
            )
        return envelope

    def _deliver_envelope(self, envelope: Envelope) -> None:
        dest = envelope.dest
        tag = envelope.tag
        is_alive, deliver = self._endpoints[dest]
        if not is_alive():
            # Reception is a local step; a crashed process takes no steps.
            self.stats.record_dropped(tag)
            return
        delay = envelope.deliver_time - envelope.send_time
        self.stats.record_delivered(tag, delay)
        if envelope.corrupted:
            self.stats.record_corrupted_delivered()
        if self._tracer is not None:
            self._tracer.record(
                envelope.deliver_time,
                dest,
                "message_delivered",
                tag=tag,
                sender=envelope.sender,
                delay=delay,
            )
        deliver(envelope.sender, envelope.message)

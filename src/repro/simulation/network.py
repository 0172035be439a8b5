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
per-message cost dominates simulated throughput.  Four choices keep one message
cheap:

* :meth:`Network.broadcast` is the native fan-out entry point: the innermost tag and
  round number of the (possibly wrapped) message are computed **once** per broadcast
  and shared by every destination, instead of re-walking the envelope chain per
  destination as a loop of :meth:`Network.send` calls would.
* :class:`Envelope` is the one object a (message, destination) pair costs: the
  delay model takes ``(sender, dest, tag, round_number)`` as plain arguments,
  and :meth:`Network.send` / :meth:`Network.broadcast` return nothing.  It is
  a plain ``__slots__`` record of what delivery reads, carries its precomputed
  ``tag``, and is handed directly to the scheduler as the event argument — no
  closure, no dict, and delivery never re-derives the tag.
* :class:`NetworkStats` is plain public counters — one ``Counter`` per outcome,
  keyed by tag, and an integer total each — and trace bookkeeping is skipped
  entirely when no tracer is installed.
* One endpoint table maps a pid to its ``(is_alive, deliver)`` pair: a delivery
  costs one dict hit.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.composition import unwrap_round_number, unwrap_tag
from repro.core.interfaces import Message
from repro.simulation.delays import DelayModel
from repro.simulation.scheduler import EventScheduler


class Envelope:
    """A message in flight.

    A slotted record rather than a dataclass: one envelope is allocated per
    (message, destination) pair on the simulator's hottest path, and it doubles as
    the scheduler event argument.  ``tag`` is the innermost protocol tag, computed
    once at send time and reused by delivery-time accounting.
    """

    __slots__ = (
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
        sender: int,
        dest: int,
        message: Message,
        send_time: float,
        deliver_time: float,
        tag: str,
        corrupted: bool = False,
    ) -> None:
        self.sender = sender
        self.dest = dest
        self.message = message
        self.send_time = send_time
        self.deliver_time = deliver_time
        self.tag = tag
        self.corrupted = corrupted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope({self.sender}->{self.dest}, "
            f"tag={self.tag!r}, deliver_time={self.deliver_time})"
        )


class NetworkStats:
    """Message accounting used by the cost experiments (E6, E9).

    Attributes
    ----------
    sent_by_tag / delivered_by_tag / dropped_by_tag / corrupted_by_tag:
        Per innermost tag: messages handed to the network, delivered to a live
        process, dropped (lossy links, unreachable or crashed destination), and
        tampered in flight.  Live counters, not copies.
    total_sent / total_delivered / total_dropped / total_corrupted:
        The same four counts over all tags.  ``total_corrupted`` is counted at
        send time, when a :class:`~repro.simulation.faults.CorruptLink` actually
        garbled the payload; the receiving side's integrity check is what turns
        these deliveries into rejections (the log's ``corruption_rejections``).
    corrupted_delivered:
        Tampered messages actually handed to an alive destination — at most
        ``total_corrupted``.  Unlike the receiver-side rejection counters, this
        network-side count survives crash-recovery (a recovered process restarts
        its algorithm, and its counters, from the initial state).
    total_delay / max_delay:
        Sum and maximum of the transfer delays of delivered messages.
    """

    __slots__ = (
        "sent_by_tag",
        "delivered_by_tag",
        "dropped_by_tag",
        "corrupted_by_tag",
        "total_sent",
        "total_delivered",
        "total_dropped",
        "total_corrupted",
        "corrupted_delivered",
        "total_delay",
        "max_delay",
    )

    def __init__(self) -> None:
        self.sent_by_tag: Counter = Counter()
        self.delivered_by_tag: Counter = Counter()
        self.dropped_by_tag: Counter = Counter()
        self.corrupted_by_tag: Counter = Counter()
        self.total_sent = 0
        self.total_delivered = 0
        self.total_dropped = 0
        self.total_corrupted = 0
        self.corrupted_delivered = 0
        self.total_delay = 0.0
        self.max_delay = 0.0

    @property
    def mean_delay(self) -> float:
        """Mean transfer delay over delivered messages."""
        delivered = self.total_delivered
        return self.total_delay / delivered if delivered else 0.0

    # -- recording (hot path) ------------------------------------------------------
    def record_sent(self, tag: str, count: int = 1) -> None:
        """Count *count* messages with *tag* handed to the network."""
        self.total_sent += count
        self.sent_by_tag[tag] += count

    def record_delivered(self, tag: str, delay: float) -> None:
        self.total_delivered += 1
        self.delivered_by_tag[tag] += 1
        self.total_delay += delay
        if delay > self.max_delay:
            self.max_delay = delay

    def record_dropped(self, tag: str) -> None:
        self.total_dropped += 1
        self.dropped_by_tag[tag] += 1

    def record_corrupted(self, tag: str) -> None:
        self.total_corrupted += 1
        self.corrupted_by_tag[tag] += 1

    def as_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly summary."""
        return {
            "sent": dict(self.sent_by_tag),
            "delivered": dict(self.delivered_by_tag),
            "dropped": dict(self.dropped_by_tag),
            "corrupted": dict(self.corrupted_by_tag),
            "total_sent": self.total_sent,
            "total_delivered": self.total_delivered,
            "total_dropped": self.total_dropped,
            "total_corrupted": self.total_corrupted,
            "corrupted_delivered": self.corrupted_delivered,
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
        #: pid -> (is_alive, deliver): one dict hit per delivery.
        self._endpoints: Dict[int, Tuple[LivenessCallback, DeliveryCallback]] = {}
        # Messages are scheduled through the scheduler's raw push (deliver_time
        # is ``now + delay`` with delay >= 0, so the schedule_at validation is
        # redundant on this path).
        self._push_event = scheduler.push_event
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
        if pid in self._endpoints:
            raise ValueError(f"process {pid} already registered with the network")
        self._endpoints[pid] = (is_alive, deliver)

    @property
    def registered_ids(self) -> List[int]:
        """Return the registered process ids, sorted."""
        return sorted(self._endpoints)

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
    ) -> None:
        """Send *message* from *sender* to *dest*.

        ``extra_delay`` is added to the drawn delay (after link adjustments);
        the stable-storage layer uses it to charge durable-write costs on the
        messages of the writing handler turn (fsync before reply).  It never
        affects loss decisions or RNG draws, so passing 0.0 is byte-identical
        to not passing it.
        """
        if dest not in self._endpoints:
            raise KeyError(f"destination process {dest} is not registered")
        tag = unwrap_tag(message)
        self.stats.record_sent(tag)
        self._dispatch(
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
    ) -> None:
        """Send *message* from *sender* to every process in *dests*.

        Semantically identical to a loop of :meth:`send` calls over *dests* (one
        independent delay decision per destination, in order; per-destination
        drops; identical stats), but the envelope walk — innermost tag and round
        number (:mod:`repro.core.composition`) — is done once and shared by the
        whole fan-out.
        """
        if not dests:
            # Parity with the loop-of-sends path: no stats entries, not even
            # zero-count tag/sender keys.
            return
        endpoints = self._endpoints
        for dest in dests:
            if dest not in endpoints:
                raise KeyError(f"destination process {dest} is not registered")
        tag = unwrap_tag(message)
        rn = unwrap_round_number(message)
        now = self._scheduler.now
        self.stats.record_sent(tag, count=len(dests))
        dispatch = self._dispatch
        for dest in dests:
            dispatch(sender, dest, message, tag, rn, now, extra_delay)

    def _dispatch(
        self,
        sender: int,
        dest: int,
        message: Message,
        tag: str,
        round_number: Optional[int],
        send_time: float,
        extra_delay: float = 0.0,
    ) -> None:
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
            return
        delay = self.delay_model.delay(sender, dest, tag, round_number)
        if delay is not None and link_state is not None:
            delay = link_state.adjust(sender, dest, delay)
        if delay is None:
            self.stats.record_dropped(tag)
            if self._tracer is not None:
                self._tracer.record(
                    send_time, sender, "message_dropped", tag=tag, dest=dest
                )
            return
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
            self.stats.corrupted_delivered += 1
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

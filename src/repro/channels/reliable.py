"""Reliable channel built over fair-lossy links (footnote 2 of the paper).

:class:`ReliableChannel` wraps any :class:`~repro.core.interfaces.Process` and turns
the fair-lossy links provided by the network into reliable ones, exactly the
acknowledgement + retransmission construction the paper sketches:

* every outgoing message is assigned a per-destination sequence number and sent
  inside a :class:`~repro.channels.messages.Data` envelope;
* unacknowledged envelopes are retransmitted periodically (the paper piggybacks them
  on later messages; periodic retransmission has the same fairness argument and
  keeps message sizes bounded);
* the receiver acknowledges every envelope and delivers each sequence number to the
  wrapped process exactly once (duplicates produced by retransmissions are dropped).

The wrapped process is completely unaware of the channel: it sees an ordinary
:class:`~repro.core.interfaces.Environment`.  Links remain non-FIFO, exactly like
the paper's reliable links.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Set, Tuple

from repro.channels.messages import Ack, Data
from repro.core.interfaces import Environment, Message, Process, TimerHandle
from repro.util.rng import RandomSource
from repro.util.validation import require_positive

_RETRANSMIT_TIMER = "retransmit"
_INNER_PREFIX = "inner:"


class _ReliableEnvironment(Environment):
    """Environment handed to the wrapped process: sends go through the channel."""

    def __init__(self, channel: "ReliableChannel", outer: Environment) -> None:
        self._channel = channel
        self._outer = outer

    @property
    def pid(self) -> int:
        return self._outer.pid

    @property
    def process_ids(self) -> Sequence[int]:
        return self._outer.process_ids

    @property
    def now(self) -> float:
        return self._outer.now

    def send(self, dest: int, message: Message) -> None:
        self._channel.reliable_send(self._outer, dest, message)

    def set_timer(self, delay: float, name: str, payload: Any = None) -> TimerHandle:
        return self._outer.set_timer(delay, _INNER_PREFIX + name, payload)

    def cancel_timer(self, handle: TimerHandle) -> None:
        self._outer.cancel_timer(handle)

    @property
    def random(self) -> RandomSource:
        return self._outer.random

    def log(self, kind: str, **details: Any) -> None:
        self._outer.log(kind, **details)


class ReliableChannel(Process):
    """Acknowledge-and-retransmit layer turning fair-lossy links into reliable ones."""

    variant_name = "reliable-channel"

    def __init__(self, inner: Process, retransmit_period: float = 2.0) -> None:
        require_positive(retransmit_period, "retransmit_period")
        self.inner = inner
        self.retransmit_period = retransmit_period
        #: Next sequence number per destination.
        self._next_seq: Dict[int, int] = {}
        #: Unacknowledged envelopes: (dest, seq) -> Data.
        self._outbox: Dict[Tuple[int, int], Data] = {}
        #: Sequence numbers already delivered, per sender (duplicate suppression).
        self._delivered: Dict[int, Set[int]] = {}
        #: Counters for tests and reports.
        self.retransmissions = 0
        self.duplicates_dropped = 0
        self._inner_env: Dict[int, _ReliableEnvironment] = {}

    # ------------------------------------------------------------------ helpers --
    def _env_for(self, env: Environment) -> _ReliableEnvironment:
        wrapped = self._inner_env.get(env.pid)
        if wrapped is None or wrapped._outer is not env:
            wrapped = _ReliableEnvironment(self, env)
            self._inner_env[env.pid] = wrapped
        return wrapped

    def reliable_send(self, env: Environment, dest: int, message: Message) -> None:
        """Send *message* to *dest* reliably (assign a sequence number, track it)."""
        seq = self._next_seq.get(dest, 0) + 1
        self._next_seq[dest] = seq
        envelope = Data(seq=seq, inner=message)
        self._outbox[(dest, seq)] = envelope
        env.send(dest, envelope)

    @property
    def unacknowledged(self) -> int:
        """Number of envelopes currently awaiting acknowledgement."""
        return len(self._outbox)

    # ------------------------------------------------------------------ lifecycle --
    def on_start(self, env: Environment) -> None:
        env.set_timer(self.retransmit_period, _RETRANSMIT_TIMER)
        self.inner.on_start(self._env_for(env))

    def on_timer(self, env: Environment, timer: TimerHandle) -> None:
        if timer.name == _RETRANSMIT_TIMER:
            for (dest, _seq), envelope in list(self._outbox.items()):
                self.retransmissions += 1
                env.send(dest, envelope)
            env.set_timer(self.retransmit_period, _RETRANSMIT_TIMER)
            return
        if timer.name.startswith(_INNER_PREFIX):
            inner_timer = TimerHandle(
                name=timer.name[len(_INNER_PREFIX):],
                fires_at=timer.fires_at,
                payload=timer.payload,
                cancelled=timer.cancelled,
                timer_id=timer.timer_id,
            )
            self.inner.on_timer(self._env_for(env), inner_timer)
            return
        raise ValueError(f"unknown timer {timer.name!r}")

    def on_message(self, env: Environment, sender: int, message: Message) -> None:
        if isinstance(message, Ack):
            self._outbox.pop((sender, message.seq), None)
            return
        if isinstance(message, Data):
            env.send(sender, Ack(seq=message.seq))
            seen = self._delivered.setdefault(sender, set())
            if message.seq in seen:
                self.duplicates_dropped += 1
                return
            seen.add(message.seq)
            self.inner.on_message(self._env_for(env), sender, message.inner)
            return
        raise TypeError(f"reliable channel received unexpected {message!r}")

    def on_crash(self, env: Environment) -> None:
        self.inner.on_crash(self._env_for(env))

    def on_stop(self, env: Environment) -> None:
        self.inner.on_stop(self._env_for(env))

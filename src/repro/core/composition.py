"""Composition of several protocols inside one process.

The consensus layer of :mod:`repro.consensus` needs to run *two* protocols in every
process: an Omega instance (the oracle) and the consensus state machine itself.  The
paper treats the oracle as a black box queried through ``leader()``; operationally
both protocols share the process's links and timers.

:class:`CompositeProcess` realises that sharing: it owns a set of named child
processes ("channels"), wraps every outgoing message in a
:class:`~repro.core.messages.Wrapped` envelope carrying the channel name (one shared
envelope per broadcast — messages are immutable), prefixes every timer name with the
channel name, and routes incoming events back to the right child.  Children are
completely unaware of the composition — they see an ordinary
:class:`~repro.core.interfaces.Environment`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Sequence

from repro.core.interfaces import Environment, Message, Process, TimerHandle
from repro.core.messages import Wrapped
from repro.util.rng import RandomSource

_SEPARATOR = "/"


class ChannelEnvironment(Environment):
    """Environment handed to a child protocol of a :class:`CompositeProcess`.

    It delegates everything to the composite's outer environment, wrapping messages
    and namespacing timers with the channel name.
    """

    def __init__(self, channel: str, outer: Environment) -> None:
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
        self._outer.send(dest, Wrapped(channel=self._channel, inner=message))

    def broadcast(self, message: Message, include_self: bool = False) -> None:
        """Wrap *message* once and fan it out through the outer environment.

        The base-class loop would allocate one :class:`~repro.core.messages.Wrapped`
        envelope per destination; messages are immutable, so a single envelope can
        be shared by the whole broadcast, and the outer environment (e.g. the
        simulator shell) may itself use a native network fan-out.
        """
        self._outer.broadcast(
            Wrapped(channel=self._channel, inner=message), include_self
        )

    def set_timer(self, delay: float, name: str, payload: Any = None) -> TimerHandle:
        return self._outer.set_timer(
            delay, f"{self._channel}{_SEPARATOR}{name}", payload
        )

    def cancel_timer(self, handle: TimerHandle) -> None:
        self._outer.cancel_timer(handle)

    @property
    def random(self) -> RandomSource:
        return self._outer.random

    def log(self, kind: str, **details: Any) -> None:
        self._outer.log(kind, channel=self._channel, **details)


class CompositeProcess(Process):
    """A process hosting several independent sub-protocols.

    Parameters
    ----------
    children:
        Mapping from channel name to child :class:`~repro.core.interfaces.Process`.
        Channel names must not contain ``"/"``.

    Notes
    -----
    Event-handler atomicity is preserved: a child's handler runs to completion inside
    the composite's handler.  Children may look each other up through
    :meth:`child` (the consensus protocol queries the Omega child's ``leader()``).
    """

    def __init__(self, children: Mapping[str, Process]) -> None:
        if not children:
            raise ValueError("CompositeProcess needs at least one child")
        for name in children:
            if _SEPARATOR in name:
                raise ValueError(f"channel name {name!r} must not contain {_SEPARATOR!r}")
        self._children: Dict[str, Process] = dict(children)
        self._environments: Dict[str, ChannelEnvironment] = {}

    # ------------------------------------------------------------------ accessors --
    def child(self, name: str) -> Process:
        """Return the child protocol registered under *name*."""
        return self._children[name]

    def channels(self) -> Iterable[str]:
        """Return the registered channel names."""
        return tuple(self._children)

    # ------------------------------------------------------------------ lifecycle --
    def _environment_for(self, name: str, env: Environment) -> ChannelEnvironment:
        channel_env = self._environments.get(name)
        if channel_env is None or channel_env._outer is not env:
            channel_env = self._channel_environment(name, env)
            self._environments[name] = channel_env
        return channel_env

    def _channel_environment(self, name: str, env: Environment) -> ChannelEnvironment:
        """Build the environment channel *name* sees; a composite that adds
        to what one channel sends overrides this."""
        return ChannelEnvironment(name, env)

    def on_start(self, env: Environment) -> None:
        for name, process in self._children.items():
            process.on_start(self._environment_for(name, env))

    def on_message(self, env: Environment, sender: int, message: Message) -> None:
        if not isinstance(message, Wrapped):
            raise TypeError(
                f"CompositeProcess expected a Wrapped message, got {message!r}"
            )
        child = self._children.get(message.channel)
        if child is None:
            raise KeyError(f"no child registered for channel {message.channel!r}")
        child.on_message(self._environment_for(message.channel, env), sender, message.inner)

    def on_timer(self, env: Environment, timer: TimerHandle) -> None:
        channel, _, inner_name = timer.name.partition(_SEPARATOR)
        child = self._children.get(channel)
        if child is None:
            raise KeyError(f"timer {timer.name!r} does not match any channel")
        # Children dispatch on the *inner* timer name; hand them a shallow view with
        # the prefix stripped but the same identity/cancellation flag.
        inner_timer = TimerHandle(
            name=inner_name,
            fires_at=timer.fires_at,
            payload=timer.payload,
            cancelled=timer.cancelled,
            timer_id=timer.timer_id,
        )
        child.on_timer(self._environment_for(channel, env), inner_timer)

    def on_crash(self, env: Environment) -> None:
        for name, process in self._children.items():
            process.on_crash(self._environment_for(name, env))

    def on_stop(self, env: Environment) -> None:
        for name, process in self._children.items():
            process.on_stop(self._environment_for(name, env))


def _innermost(message: Message) -> Message:
    """Strip every envelope (composite channels, reliable-channel Data, ...)."""
    inner = getattr(message, "inner", None)
    while isinstance(inner, Message):
        message = inner
        inner = getattr(message, "inner", None)
    return message


def unwrap_round_number(message: Message) -> Optional[int]:
    """Return the round number carried by *message*, unwrapping envelopes.

    Delay models use this helper to apply assumption constraints to ALIVE messages
    even when they travel wrapped inside a composite-process or reliable-channel
    envelope.
    """
    rn = getattr(_innermost(message), "rn", None)
    return int(rn) if rn is not None else None


def unwrap_tag(message: Message) -> str:
    """Return the tag of the innermost message (see :func:`unwrap_round_number`)."""
    return _innermost(message).tag

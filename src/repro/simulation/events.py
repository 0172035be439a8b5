"""Events of the discrete-event simulator.

An :class:`Event` is one scheduled callback.  The
:class:`~repro.simulation.scheduler.EventScheduler` keeps events in a binary heap
ordered by ``(time, seq)``: events scheduled for the same instant fire in the order
they were scheduled, which keeps executions fully deterministic for a given seed.
Cancelling only flags an event; the scheduler skips flagged events when it pops
them (cheaper than heap surgery and irrelevant for memory at the scales of this
library).

Hot-path design
---------------
The simulator executes one event per simulated message and per timer, so this
module is allocation-sensitive.  An :class:`Event` is a slotted object carrying a
``(callback, arg)`` pair: schedulers push a bound method plus its single argument
(e.g. ``Network._deliver_envelope`` plus the in-flight envelope) instead of
allocating a closure per event.  ``arg`` defaults to the :data:`NO_ARG` sentinel,
in which case the callback is invoked with no arguments — existing zero-argument
callbacks keep working unchanged.
"""

from __future__ import annotations

from typing import Any, Callable

#: Signature of an event callback (called with no arguments, or with ``arg``).
EventCallback = Callable[..., None]

#: Sentinel meaning "no argument": the callback is invoked as ``callback()``.
NO_ARG = object()


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute virtual time at which the event fires.
    seq:
        Monotonically increasing sequence number used as a tie-breaker.
    callback / arg:
        The work to run: ``callback(arg)``, or ``callback()`` when ``arg`` is
        :data:`NO_ARG`.
    cancelled:
        True when the event has been cancelled; cancelled events never run.
    """

    __slots__ = ("time", "seq", "callback", "arg", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: EventCallback, arg: Any = NO_ARG
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.arg = arg
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled."""
        self.cancelled = True

    def run(self) -> None:
        """Invoke the callback (with ``arg`` when one was supplied)."""
        if self.arg is NO_ARG:
            self.callback()
        else:
            self.callback(self.arg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(time={self.time}, seq={self.seq}, {state})"

"""Event queue of the discrete-event simulator.

The queue is a binary heap ordered by ``(time, sequence_number)``: events scheduled
for the same instant fire in the order they were scheduled, which keeps executions
fully deterministic for a given seed.  Cancelled events stay in the heap and are
skipped lazily when popped (cheaper than heap surgery and irrelevant for memory at
the scales of this library).

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

import heapq
import itertools
from typing import Any, Callable, List, Optional, Sequence

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

    __slots__ = ("time", "seq", "callback", "arg", "cancelled", "_in_queue")

    def __init__(
        self, time: float, seq: int, callback: EventCallback, arg: Any = NO_ARG
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.arg = arg
        self.cancelled = False
        self._in_queue = True

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


class EventQueue:
    """Deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, callback: EventCallback, arg: Any = NO_ARG) -> Event:
        """Schedule *callback* at absolute *time* and return its :class:`Event`.

        ``arg`` (when given) is passed to the callback at execution time; this is
        the zero-allocation alternative to binding the argument in a lambda.
        """
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        event = Event(time, next(self._counter), callback, arg)
        heapq.heappush(self._heap, (time, event.seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel *event* (no-op if it already ran or was already cancelled).

        The cancelled flag is set even when the event is no longer in the heap:
        the scheduler's ``run_until`` drains whole same-timestamp runs before
        executing them, so an event may be cancelled by an *earlier event of
        its own timestamp run* after it was popped — the flag is what makes the
        execution loop skip it.  Membership is tracked explicitly so that only
        still-queued events adjust the live count reported by ``len``.
        """
        if not event.cancelled:
            event.cancelled = True
            if event._in_queue:
                self._live -= 1

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or ``None`` if empty."""
        self._discard_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if the queue is empty."""
        self._discard_cancelled()
        if not self._heap:
            return None
        _, _, event = heapq.heappop(self._heap)
        event._in_queue = False
        self._live -= 1
        return event

    def requeue_run(self, events: Sequence[Event]) -> None:
        """Push already-drained *events* back into the queue (exception unwind).

        Used by ``run_until`` when a callback raises with part of a drained
        timestamp run still unexecuted: the remaining events go back under
        their original ``(time, seq)`` keys, so a caller that catches the
        exception observes the same pending set as with per-event popping.
        """
        heappush = heapq.heappush
        count = 0
        for event in events:
            if event.cancelled:
                continue
            heappush(self._heap, (event.time, event.seq, event))
            event._in_queue = True
            count += 1
        self._live += count

    def _discard_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            event = heapq.heappop(heap)[2]
            event._in_queue = False

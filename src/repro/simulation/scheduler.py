"""Virtual clock and event scheduler.

:class:`EventScheduler` is the heart of the simulation substrate: it owns the global
virtual clock (the "fictional global discrete clock" of the paper's model, visible to
the analysis layer but never to the algorithms) and executes scheduled events in
timestamp order.

Both scheduling entry points accept an optional ``arg`` that is passed to the
callback at execution time (see :mod:`repro.simulation.events`): schedulers of hot
per-message work hand over ``(bound_method, payload)`` pairs instead of allocating a
closure per event.

Hot-path design
---------------
The scheduler owns its ``(time, seq, event)`` heap, and :meth:`EventScheduler.run_until`
is one pop-and-run loop over it: an event cancelled by an earlier event of its own
timestamp is still in the heap when the flag is set, so popping it skips it, and a
raising callback leaves everything after it pending.  The clock is only advanced
when an event's time is later than ``now``, never reassigned on ties (see the loop).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List, Optional

from repro.simulation.events import NO_ARG, Event, EventCallback
from repro.util.validation import require_non_negative


class EventScheduler:
    """Discrete-event scheduler with a monotonically advancing virtual clock."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._executed = 0

    # ------------------------------------------------------------------ clock --
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still scheduled (cancelled ones excluded)."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    @property
    def executed(self) -> int:
        """Total number of events executed since construction."""
        return self._executed

    # ------------------------------------------------------------------ scheduling --
    def push_event(
        self, time: float, callback: EventCallback, arg: Any = NO_ARG
    ) -> Event:
        """Schedule ``callback(arg)`` at absolute *time* **without** validation.

        Reserved for callers whose times are ``now + delay`` with ``delay >= 0``
        by construction — the network's message dispatch is the one user.
        """
        event = Event(time, next(self._seq), callback, arg)
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def schedule_at(
        self, time: float, callback: EventCallback, arg: Any = NO_ARG
    ) -> Event:
        """Schedule *callback* at absolute virtual time *time*.

        Scheduling strictly in the past is an error; scheduling exactly at the
        current time is allowed (the event runs after all previously scheduled
        events with the same timestamp).
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule an event in the past: {time} < now {self._now}"
            )
        return self.push_event(time, callback, arg)

    def schedule_after(
        self, delay: float, callback: EventCallback, arg: Any = NO_ARG
    ) -> Event:
        """Schedule *callback* after *delay* virtual time units."""
        require_non_negative(delay, "delay")
        return self.push_event(self._now + delay, callback, arg)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (safe to call twice, or after it ran)."""
        event.cancel()

    # ------------------------------------------------------------------ execution --
    def step(self) -> bool:
        """Execute the next event; return False when none is left."""
        heap = self._heap
        while heap:
            run_time, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            if run_time > self._now:
                self._now = run_time
            self._executed += 1
            event.run()
            return True
        return False

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run every event scheduled up to and including *time*.

        The clock is left at exactly *time* (even if the last event fired earlier),
        so back-to-back calls compose: ``run_until(10); run_until(20)`` is equivalent
        to ``run_until(20)``.

        Parameters
        ----------
        time:
            Horizon (absolute virtual time).
        max_events:
            Optional safety valve; raises ``RuntimeError`` when more events than this
            fire before the horizon (catches accidental infinite event loops, e.g. a
            zero-period timer).

        Returns
        -------
        int
            The number of events executed by this call.
        """
        if time < self._now:
            raise ValueError(f"cannot run until {time}, clock already at {self._now}")
        heap = self._heap
        heappop = heapq.heappop
        no_arg = NO_ARG
        executed = 0
        while heap and heap[0][0] <= time:
            run_time, _, event = heappop(heap)
            if event.cancelled:
                continue
            # Guarded, not assigned on every event: client histories store
            # ``now`` and equal-time events carry distinct float objects, so
            # reassigning would make every record pin its own float (peak RSS).
            if run_time > self._now:
                self._now = run_time
            self._executed += 1
            if event.arg is no_arg:
                event.callback()
            else:
                event.callback(event.arg)
            executed += 1
            if max_events is not None and executed > max_events:
                raise RuntimeError(
                    f"run_until({time}) exceeded max_events={max_events}; "
                    "suspected event loop"
                )
        self._now = time
        return executed

    def run_to_quiescence(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain (bounded by *max_events*)."""
        executed = 0
        while self.step():
            executed += 1
            if executed > max_events:
                raise RuntimeError(
                    f"run_to_quiescence exceeded max_events={max_events}"
                )
        return executed

"""Real-time asyncio runtime for the same algorithm objects.

The simulator of :mod:`repro.simulation` is the tool of choice for experiments
(deterministic, virtual time), but the algorithm classes themselves are
runtime-agnostic: they only talk to an :class:`~repro.core.interfaces.Environment`.
This module provides a second environment backed by ``asyncio``: every process is a
node with its own event queue (preserving handler atomicity), messages travel over
in-memory queues with real (wall-clock) delays drawn from an optional delay model,
and timers use the event loop's clock.

Intended uses: the ``examples/realtime_asyncio.py`` demo, smoke tests that the
algorithms run outside the simulator, and as a template for wiring the algorithms to
a real transport (the only code to replace is :meth:`AsyncioNode._transmit`).
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Any, Dict, List, Optional, Sequence

from repro.core.composition import unwrap_round_number, unwrap_tag
from repro.core.interfaces import Environment, LeaderOracle, Message, Process, TimerHandle
from repro.simulation.delays import ConstantDelay, DelayModel
from repro.util.rng import RandomSource
from repro.util.validation import require_non_negative, validate_process_count


@dataclasses.dataclass
class _QueuedMessage:
    sender: int
    message: Message


@dataclasses.dataclass
class _QueuedTimer:
    handle: TimerHandle


class AsyncioEnvironment(Environment):
    """Environment implementation bound to one :class:`AsyncioNode`."""

    def __init__(self, node: "AsyncioNode") -> None:
        self._node = node

    @property
    def pid(self) -> int:
        return self._node.pid

    @property
    def process_ids(self) -> Sequence[int]:
        return self._node.cluster.process_ids

    @property
    def now(self) -> float:
        return self._node.cluster.now

    def send(self, dest: int, message: Message) -> None:
        self._node.cluster.transmit(self._node.pid, dest, message)

    def set_timer(self, delay: float, name: str, payload: Any = None) -> TimerHandle:
        return self._node.set_timer(delay, name, payload)

    def cancel_timer(self, handle: TimerHandle) -> None:
        handle.cancel()

    @property
    def random(self) -> RandomSource:
        return self._node.rng

    def log(self, kind: str, **details: Any) -> None:
        self._node.cluster.log(self._node.pid, kind, details)


class AsyncioNode:
    """One process of an :class:`AsyncioCluster`."""

    def __init__(self, pid: int, algorithm: Process, cluster: "AsyncioCluster") -> None:
        self.pid = pid
        self.algorithm = algorithm
        self.cluster = cluster
        self.rng = RandomSource(cluster.seed, label=f"node-{pid}")
        self.env = AsyncioEnvironment(self)
        self.inbox: "asyncio.Queue" = asyncio.Queue()
        self.crashed = False
        self._task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------ lifecycle --
    def start(self) -> None:
        """Start the node's event loop task and run the algorithm's ``on_start``."""
        self._task = asyncio.get_event_loop().create_task(self._run())

    async def _run(self) -> None:
        self.algorithm.on_start(self.env)
        while True:
            item = await self.inbox.get()
            if item is None:
                break
            if self.crashed:
                continue
            if isinstance(item, _QueuedMessage):
                self.algorithm.on_message(self.env, item.sender, item.message)
            elif isinstance(item, _QueuedTimer):
                if not item.handle.cancelled:
                    self.algorithm.on_timer(self.env, item.handle)

    async def stop(self) -> None:
        """Stop the node's event loop task."""
        if self._task is None:
            return
        await self.inbox.put(None)
        await self._task
        self._task = None
        if not self.crashed:
            self.algorithm.on_stop(self.env)

    def crash(self) -> None:
        """Crash the node: it silently ignores every further event."""
        self.crashed = True
        self.algorithm.on_crash(self.env)

    # ------------------------------------------------------------------ events --
    def deliver(self, sender: int, message: Message) -> None:
        if not self.crashed:
            self.inbox.put_nowait(_QueuedMessage(sender=sender, message=message))

    def set_timer(self, delay: float, name: str, payload: Any = None) -> TimerHandle:
        require_non_negative(delay, "delay")
        handle = TimerHandle(name=name, fires_at=self.cluster.now + delay, payload=payload)
        loop = asyncio.get_event_loop()
        loop.call_later(
            delay * self.cluster.time_scale,
            lambda: self.inbox.put_nowait(_QueuedTimer(handle=handle)),
        )
        return handle


class AsyncioCluster:
    """A set of :class:`AsyncioNode` objects connected by in-memory links.

    Parameters
    ----------
    n, t:
        System parameters (validated; ``t`` is only used by the algorithm factories).
    algorithm_factory:
        Callable ``pid -> Process``.
    delay_model:
        Optional per-message delay model expressed in *algorithm* time units; real
        sleeping time is ``delay * time_scale`` seconds.
    time_scale:
        Wall-clock seconds per algorithm time unit (default 0.01: an ALIVE period of
        1.0 becomes 10 ms, so a full demo completes in seconds).
    """

    def __init__(
        self,
        n: int,
        t: int,
        algorithm_factory,
        delay_model: Optional[DelayModel] = None,
        time_scale: float = 0.01,
        seed: int = 0,
    ) -> None:
        validate_process_count(n, t)
        require_non_negative(time_scale, "time_scale")
        self.n = n
        self.t = t
        self.seed = seed
        self.time_scale = time_scale
        self.delay_model = delay_model if delay_model is not None else ConstantDelay(0.1)
        self.process_ids = tuple(range(n))
        self.nodes: List[AsyncioNode] = [
            AsyncioNode(pid, algorithm_factory(pid), self) for pid in range(n)
        ]
        self.trace: List[tuple] = []
        self._start_time: Optional[float] = None

    # ------------------------------------------------------------------ clock --
    @property
    def now(self) -> float:
        """Elapsed algorithm-time units since the cluster started."""
        if self._start_time is None:
            return 0.0
        loop_time = asyncio.get_event_loop().time()
        return (loop_time - self._start_time) / self.time_scale if self.time_scale else 0.0

    # ------------------------------------------------------------------ transport --
    def transmit(self, sender: int, dest: int, message: Message) -> None:
        """Schedule delivery of *message* to *dest* after the model's delay."""
        node = self.nodes[dest]
        delay = self.delay_model.delay(
            sender, dest, unwrap_tag(message), unwrap_round_number(message)
        )
        if delay is None:
            return
        loop = asyncio.get_event_loop()
        loop.call_later(
            delay * self.time_scale, lambda: node.deliver(sender, message)
        )

    def log(self, pid: int, kind: str, details: Dict[str, Any]) -> None:
        self.trace.append((self.now, pid, kind, details))

    # ------------------------------------------------------------------ execution --
    async def run(self, duration: float, crashes: Optional[Dict[int, float]] = None) -> None:
        """Run the cluster for *duration* algorithm-time units of wall-clock time.

        ``crashes`` maps pids to the algorithm-time instant at which they crash.
        """
        loop = asyncio.get_event_loop()
        self._start_time = loop.time()
        for node in self.nodes:
            node.start()
        for pid, crash_at in (crashes or {}).items():
            loop.call_later(crash_at * self.time_scale, self.nodes[pid].crash)
        await asyncio.sleep(duration * self.time_scale)
        for node in self.nodes:
            await node.stop()

    # ------------------------------------------------------------------ queries --
    def leaders(self) -> Dict[int, int]:
        """Return the current ``leader()`` output of every non-crashed oracle node."""
        return {
            node.pid: node.algorithm.leader()
            for node in self.nodes
            if not node.crashed and isinstance(node.algorithm, LeaderOracle)
        }

"""Worker-count-independent task pools.

Two subsystems fan work out over processes — the fuzzing campaign
(:mod:`repro.fuzz.campaign`) and the parallel shard executor
(:mod:`repro.simulation.parallel`) — and both follow the same discipline so
that results are a pure function of the task list, never of the worker count
or of completion order:

1. **Pure tasks.**  Each task is a self-contained, picklable payload
   (a plain dict of primitives) executed by a **module-level** worker
   function, so any multiprocessing start method (``fork``, ``spawn``,
   ``forkserver``) can ship it.
2. **Pre-derived seeds.**  Every task's randomness is seeded *before*
   execution with :func:`repro.util.rng.derive_seed` over stable labels
   (campaign: ``("task", round, slot)``; shards: ``("pshard", index)``) —
   workers never share or advance a common random stream.
3. **Order-preserving fold.**  Results come back in task order
   (``Pool.map`` preserves it; the inline loop trivially does), and callers
   fold them in that order, never in completion order.

Under this discipline, ``workers=0`` (inline), ``workers=1`` and
``workers=N`` produce byte-identical results; the pool only changes
wall-clock time.  :func:`run_tasks` is the one place the pool is set up.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Dict, List, Sequence

#: Signature of a worker: one picklable dict in, one picklable dict out.
TaskWorker = Callable[[Dict], Dict]


def run_tasks(worker: TaskWorker, payloads: Sequence[Dict], workers: int = 0) -> List[Dict]:
    """Execute ``worker`` over every payload, returning results in task order.

    Parameters
    ----------
    worker:
        Module-level function mapping one payload dict to one result dict
        (a bound method or closure would not survive ``spawn`` pickling).
    payloads:
        The task list; each entry must be picklable.
    workers:
        Worker processes.  ``0`` or ``1`` executes inline in this process —
        same results, no pool — as does a single-payload task list (a pool
        would only add start-up latency).  Negative counts raise
        :class:`ValueError`.

    Returns
    -------
    list
        ``[worker(p) for p in payloads]`` — literally so on the inline path,
        and element-wise identical on the pool path.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    payloads = list(payloads)
    if workers > 1 and len(payloads) > 1:
        context = multiprocessing.get_context()
        processes = min(workers, len(payloads))
        with context.Pool(processes=processes) as pool:
            return pool.map(worker, payloads)
    return [worker(payload) for payload in payloads]

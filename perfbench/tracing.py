"""The traced run: where the host time and the virtual latency of a run go.

Every span is recorded from this directory, around calls into public
functions of the program; nothing in ``src/`` knows it is being watched.

*Host side.*  ``cProfile`` over ``run_until`` is the span record: a function
is a span name, its caller the parent span, ``tottime`` the self time.  Rows
are folded through :func:`perfbench.layers.layer_of`; builtins and stdlib
functions are billed to the layer that called them.

*Request side*, in virtual time, keyed ``(client_id, seq)``.  Class-level
wrappers, installed for the traced run only, stamp each operation at the layer
boundaries it crosses: ``ShardedService.submit`` / ``submit_read`` (client ->
service), ``KeyValueStore.apply`` (consensus -> state machine),
``StableStore.put`` / ``delete`` and ``SnapshotManager.take_snapshot`` /
``install`` (consensus -> storage).  With the load generator's own due and
observation times that gives, per operation, ``client.op`` [due, observed]
containing ``client.queue`` [due, submitted], ``consensus.commit_path``
[submitted, first apply on any replica] and ``client.poll_wait`` [first apply,
observed], plus counts at the same boundaries.

An :class:`Observer` ticking every 0.5 vt times what no single call shows: how
long a shard takes to agree on a live leader after its leader crashed, and how
long a restarted replica takes to catch up.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import pstats
import re
import time
from typing import Dict, Iterator, List, Tuple

from perfbench.layers import LAYERS, OTHER, PERFBENCH, layer_of
from perfbench.measure import mean
from perfbench.workloads import Run
from repro.service import KeyValueStore, ShardedService
from repro.storage import SnapshotManager, StableStore

OBSERVER_TICK = 0.5
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")

OpKey = Tuple[str, int]


class Spans:
    """Virtual-time stamps and counts taken at the layer boundaries."""

    def __init__(self, run: Run) -> None:
        self._scheduler = run.service.scheduler
        self.first_submit: Dict[OpKey, float] = {}
        self.first_apply: Dict[OpKey, float] = {}
        self.counts: Dict[str, int] = {
            "service.submit": 0,
            "service.submit_read": 0,
            "service.apply": 0,
            "storage.put": 0,
            "storage.delete": 0,
            "storage.take_snapshot": 0,
            "storage.install": 0,
            "storage.snapshot_entries": 0,
        }

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the boundary functions for the duration of the ``with`` block."""
        spans = self
        counts = self.counts
        scheduler = self._scheduler
        originals = {
            (cls, name): getattr(cls, name)
            for cls, name in (
                (ShardedService, "submit"),
                (ShardedService, "submit_read"),
                (KeyValueStore, "apply"),
                (StableStore, "put"),
                (StableStore, "delete"),
                (SnapshotManager, "take_snapshot"),
                (SnapshotManager, "install"),
            )
        }

        def submit(service, command, gateway=None):
            counts["service.submit"] += 1
            spans.first_submit.setdefault((command.client_id, command.seq), scheduler.now)
            return originals[ShardedService, "submit"](service, command, gateway)

        def submit_read(service, command, gateway=None):
            counts["service.submit_read"] += 1
            spans.first_submit.setdefault((command.client_id, command.seq), scheduler.now)
            return originals[ShardedService, "submit_read"](service, command, gateway)

        def apply(machine, command):
            counts["service.apply"] += 1
            spans.first_apply.setdefault((command.client_id, command.seq), scheduler.now)
            return originals[KeyValueStore, "apply"](machine, command)

        def put(store, key, value):
            counts["storage.put"] += 1
            return originals[StableStore, "put"](store, key, value)

        def delete(store, key):
            counts["storage.delete"] += 1
            return originals[StableStore, "delete"](store, key)

        def take_snapshot(manager):
            snapshot = originals[SnapshotManager, "take_snapshot"](manager)
            counts["storage.take_snapshot"] += 1
            # Rows plus the applied-seq sets inside the session rows: the part
            # of a snapshot that grows with history rather than with state.
            counts["storage.snapshot_entries"] += len(snapshot.payload) + sum(
                len(row[2]) for row in snapshot.payload if row[0] == "session"
            )
            return snapshot

        def install(manager, snapshot, persist):
            installed = originals[SnapshotManager, "install"](manager, snapshot, persist)
            if installed:
                counts["storage.install"] += 1
            return installed

        wrappers = {
            (ShardedService, "submit"): submit,
            (ShardedService, "submit_read"): submit_read,
            (KeyValueStore, "apply"): apply,
            (StableStore, "put"): put,
            (StableStore, "delete"): delete,
            (SnapshotManager, "take_snapshot"): take_snapshot,
            (SnapshotManager, "install"): install,
        }
        for (cls, name), wrapper in wrappers.items():
            setattr(cls, name, wrapper)
        try:
            yield
        finally:
            for (cls, name), original in originals.items():
                setattr(cls, name, original)


class Observer:
    """A read-only 0.5-vt tick timing re-elections and recovery catch-up."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.ticks = 0
        #: ``(shard, crashed_at, agreed_at or None)`` per injected leader crash.
        self.elections: List[List] = []
        #: ``(shard, pid, recovered_at, caught_up_at or None, target)`` per recovery.
        self.recoveries: List[List] = []
        self._crashes_seen = 0
        self._recoveries_seen = {
            (shard, shell.pid): 0 for shard, system in enumerate(run.service.systems) for shell in system.shells
        }
        run.service.scheduler.schedule_after(OBSERVER_TICK, self._tick)

    def _tick(self) -> None:
        run = self.run
        service = run.service
        now = service.now
        self.ticks += 1
        for shard, _pid, crashed_at, _down in run.leader_crash_log[self._crashes_seen :]:
            self.elections.append([shard, crashed_at, None])
        self._crashes_seen = len(run.leader_crash_log)
        for election in self.elections:
            # Strictly after the crash instant: the injected Crash event fires
            # later in the same timestamp than the tick that first sees it logged.
            if election[2] is None and now > election[1]:
                system = service.systems[election[0]]
                leader = system.agreed_leader()
                if leader is not None and not system.shells[leader].crashed:
                    election[2] = now
        for shard, system in enumerate(service.systems):
            for shell in system.shells:
                if shell.recoveries != self._recoveries_seen[shard, shell.pid]:
                    self._recoveries_seen[shard, shell.pid] = shell.recoveries
                    target = max(other.algorithm.commands_delivered for other in system.shells)
                    self.recoveries.append([shard, shell.pid, now, None, target])
        for recovery in self.recoveries:
            if recovery[3] is None:
                shell = service.systems[recovery[0]].shells[recovery[1]]
                if not shell.crashed and shell.algorithm.commands_delivered >= recovery[4]:
                    recovery[3] = now
        if now + OBSERVER_TICK <= run.spec.horizon:
            service.scheduler.schedule_after(OBSERVER_TICK, self._tick)


# ------------------------------------------------------------------ host side --
def traced_advance(run: Run) -> Tuple[float, pstats.Stats]:
    """Run *run* to its horizon under ``cProfile``; return ``(CPU s, stats)``."""
    profile = cProfile.Profile()
    gc.collect()
    gc.disable()  # as in the timed run (see measure.advance)
    started = time.process_time()
    profile.enable()
    try:
        run.service.run_until(run.spec.horizon)
    finally:
        profile.disable()
        gc.enable()
    return time.process_time() - started, pstats.Stats(profile)


def fold_profile(stats: pstats.Stats) -> Dict:
    """Fold profiler rows into per-layer call counts and self time.

    Returns ``{"calls": layer -> Python-level calls, "self_s": layer -> self
    seconds, "rows": [[layer, function, caller, calls, self_s], ...]}``.  A
    function outside the program and the benchmark (stdlib, builtin) is billed,
    caller by caller, to the layer that called it.
    """
    table = stats.stats  # type: ignore[attr-defined]
    resolved: Dict[Tuple, str] = {}

    def resolve(function: Tuple, depth: int = 0) -> str:
        layer = layer_of(function[0])
        if layer is not None:
            return layer
        if function in resolved:
            return resolved[function]
        resolved[function] = OTHER  # cycle guard
        callers = table.get(function, (0, 0, 0.0, 0.0, {}))[4]
        if callers and depth < 8:
            # By call count, not time: the bill must not change from run to run.
            busiest = max(callers.items(), key=lambda item: (item[1][1], item[0]))[0]
            resolved[function] = resolve(busiest, depth + 1)
        return resolved[function]

    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    rows: List[List] = []
    for function, (_cc, ncalls, tottime, _cumtime, callers) in table.items():
        filename, line, name = function
        own_layer = layer_of(filename)
        # Python-level = has source.  Generated dataclass ``__eq__`` is left out
        # of the call *counts*: it runs on hash collisions, and ``hash(None)``
        # (inside every cas command) is an address, so its count follows the
        # process's memory layout, not the seed.
        python_level = filename != "~" and not (filename == "<string>" and name == "__eq__")
        label = f"{filename.rsplit('/', 1)[-1]}:{line}({name})" if filename != "~" else _ADDRESS.sub("", name)
        if own_layer is not None or not callers:
            shares = [(own_layer or OTHER, "", ncalls, tottime)]
        else:
            shares = [
                (
                    resolve(caller),
                    _ADDRESS.sub("", f"{caller[0].rsplit('/', 1)[-1]}:{caller[1]}({caller[2]})"),
                    c_ncalls,
                    c_tottime,
                )
                for caller, (_c_cc, c_ncalls, c_tottime, _c_cum) in callers.items()
            ]
        for layer, caller_label, share_calls, share_self in shares:
            self_s[layer] = self_s.get(layer, 0.0) + share_self
            if python_level:
                calls[layer] = calls.get(layer, 0) + share_calls
            rows.append([layer, label, caller_label, share_calls, share_self])
    rows.sort(key=lambda row: (-row[4], row[0], row[1], row[2]))
    return {"calls": calls, "self_s": self_s, "rows": rows}


# ------------------------------------------------------------------ the numbers --
def traced_metrics(run: Run, spans: Spans, observer: Observer, folded: Dict, completed: int) -> Dict[str, float]:
    """Per-layer metrics only the traced run can give."""
    completed = completed or 1
    calls, self_s = folded["calls"], folded["self_s"]
    total_self = sum(self_s.values()) or 1.0
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = calls.get(layer, 0) / completed
        metrics[f"{layer}.self_share"] = self_s.get(layer, 0.0) / total_self
    metrics["perfbench.self_share"] = self_s.get(PERFBENCH, 0.0) / total_self
    metrics["host_calls_per_op"] = sum(count for layer, count in calls.items() if layer != PERFBENCH) / completed

    commit_path: List[float] = []
    poll_wait: List[float] = []
    for session in run.sessions:
        for record in session.history:
            applied_at = spans.first_apply.get((record.client_id, record.seq))
            if applied_at is not None:
                commit_path.append(applied_at - record.invoked_at)
                poll_wait.append(record.completed_at - applied_at)
    metrics["consensus.commit_path_vt_mean"] = mean(commit_path)
    metrics["service.clients.poll_wait_vt_mean"] = mean(poll_wait)

    metrics["core.reelection_vt"] = mean(
        [(agreed_at if agreed_at is not None else run.spec.horizon) - crashed_at
         for _shard, crashed_at, agreed_at in observer.elections]
    )
    resumes: List[float] = []
    observed = sorted((op[4], op[0]) for op in run.completed_ops())
    for shard, _crashed_at, agreed_at in observer.elections:
        if agreed_at is not None:
            later = [when for when, op_shard in observed if op_shard == shard and when >= agreed_at]
            resumes.append((later[0] if later else run.spec.horizon) - agreed_at)
    metrics["consensus.resume_after_election_vt"] = mean(resumes)
    metrics["storage.recovery_catchup_vt"] = mean(
        [(caught_up_at if caught_up_at is not None else run.spec.horizon) - recovered_at
         for _shard, _pid, recovered_at, caught_up_at, _target in observer.recoveries]
    )
    snapshots = spans.counts["storage.take_snapshot"]
    metrics["storage.snapshot_entries_mean"] = spans.counts["storage.snapshot_entries"] / snapshots if snapshots else 0.0
    return metrics


def request_rows(run: Run, spans: Spans) -> List[List]:
    """One row per completed operation: the stamps its spans are made of.

    ``[client_id, seq, op, shard, due, submitted, first_apply, observed]`` —
    ``client.op`` is [due, observed], ``client.queue`` [due, submitted],
    ``consensus.commit_path`` [submitted, first_apply] and ``client.poll_wait``
    [first_apply, observed]; ``first_apply`` is null for a lease-served read,
    which never enters the log.
    """
    shard_for = run.service.shard_for
    rows = []
    for session in run.sessions:
        for record in session.history:
            key = (record.client_id, record.seq)
            rows.append(
                [
                    record.client_id,
                    record.seq,
                    record.op,
                    shard_for(record.key),
                    getattr(record, "due_at", record.invoked_at),
                    spans.first_submit.get(key),
                    spans.first_apply.get(key),
                    record.completed_at,
                ]
            )
    return rows


def trace_document(run: Run, spans: Spans, observer: Observer, folded: Dict) -> Dict:
    """What ``<out>/<workload>.trace.json`` holds."""
    return {
        "workload": run.spec.name,
        "seed": run.seed,
        "host": {
            "columns": ["layer", "function", "caller", "calls", "self_s"],
            "rows": folded["rows"],
            "layer_calls": folded["calls"],
            "layer_self_s": folded["self_s"],
        },
        "requests": {
            "columns": ["client_id", "seq", "op", "shard", "due", "submitted", "first_apply", "observed"],
            "rows": request_rows(run, spans),
        },
        "boundary_counts": spans.counts,
        "elections": observer.elections,
        "recoveries": observer.recoveries,
        "observer_ticks": observer.ticks,
    }


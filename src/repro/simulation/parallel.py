"""Parallel shard execution with a deterministic merge.

:class:`~repro.service.sharding.ShardedService` multiplexes ``S`` independent
shard groups on **one** event loop — coherent, but bounded by a single core.
This module is the scale-out path: each shard's event loop runs in its own
worker process and the per-shard results are merged **deterministically**, so
a seeded run is byte-identical regardless of worker count.  A run is described
by the same :class:`~repro.service.sharding.ServiceSpec` every other harness
uses, plus an optional fault plan per shard.

Why this is exact, not approximate
----------------------------------
Shards of a :class:`ShardedService` never exchange messages — each is an
autonomous ``AS_{n,t}`` system with its own Omega oracle, consensus pipeline,
delay scenario, fault plan and clients; the only thing they ever shared was
the clock.  The parallel executor therefore runs each shard as a
self-contained single-shard service on its **own** virtual clock, seeded with
``derive_seed(spec.seed, "pshard", shard)``:

* ``workers=0`` (inline) and ``workers=N`` call the *same* pure function
  :func:`run_shard` on the *same* payloads — only the executing process
  differs, so per-shard results are trivially byte-identical;
* the merge folds per-shard results **in shard order, never completion
  order** (the :mod:`repro.util.parallel` discipline), and the run
  fingerprint is a digest over the ordered per-shard fingerprints.

What may NOT cross a shard boundary
-----------------------------------
Anything that would couple two shards' event loops breaks the decomposition:
cross-shard client sessions (a client here drives exactly one shard),
cross-shard transactions or reads, a shared random stream, and any use of one
global virtual clock for cross-shard timing.  Virtual time is per shard;
whole-run wall-clock time is the only cross-shard time that exists, and it
never influences results (fingerprints exclude every wall measurement).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.interfaces import fold_counters
from repro.service.clients import start_workload
from repro.service.sharding import ServiceSpec, build_service
from repro.simulation.faults import FaultPlan
from repro.util.parallel import run_tasks
from repro.util.rng import derive_seed, fingerprint
from repro.util.wallclock import now as wallclock_now


@dataclasses.dataclass(frozen=True)
class ShardResult:
    """One shard's complete, deterministic outcome (plus its wall time).

    Every field except ``wall_seconds`` is a pure function of
    ``(spec, shard, plan)``; the ``fingerprint`` digests exactly those fields, so
    equal inputs produce byte-identical fingerprints in any process.
    """

    shard: int
    events: int
    messages: int
    committed: int
    applied: int
    digests: Tuple[str, ...]
    consistent: bool
    counters: Dict[str, int]
    violations: Tuple[str, ...]
    wall_seconds: float
    fingerprint: str

    def to_dict(self) -> Dict:
        return {
            "shard": self.shard,
            "events": self.events,
            "messages": self.messages,
            "committed": self.committed,
            "applied": self.applied,
            "digests": list(self.digests),
            "consistent": self.consistent,
            "counters": dict(self.counters),
            "violations": list(self.violations),
            "wall_seconds": self.wall_seconds,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ShardResult":
        if not isinstance(data, dict):
            raise ValueError(f"shard result must be a dict, got {data!r}")
        names = {field.name for field in dataclasses.fields(cls)}
        missing = sorted(names - set(data))
        if missing:
            raise ValueError(f"shard result is missing field(s) {missing}")
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(f"unknown shard result field(s) {unknown}")
        data = dict(data)
        data["digests"] = tuple(data["digests"])
        data["violations"] = tuple(data["violations"])
        return cls(**data)


def run_shard(
    spec: ServiceSpec, shard: int, plan: Optional[FaultPlan] = None
) -> ShardResult:
    """Run *shard* of *spec* to the horizon — the pure per-shard function.

    Builds a self-contained single-shard :class:`ShardedService` on its own
    virtual clock: *spec* with ``num_shards=1`` and the shard seed
    ``derive_seed(spec.seed, "pshard", shard)``, but the scenario the whole
    deployment gives this shard — ``spec.build_scenario(shard)``, the *global*
    index and the *run* seed, so the default star's centre rotates across
    shards exactly as in the multiplexed deployment — *plan* (``None`` runs
    fault-free) and ``spec.num_clients`` shard-local closed-loop clients.

    ``workers=0`` and ``workers=N`` paths of :func:`run_parallel_service`
    both land here with identical arguments; everything but ``wall_seconds``
    is a pure function of them.
    """
    if not 0 <= shard < spec.num_shards:
        raise ValueError(
            f"shard {shard} out of range for num_shards={spec.num_shards}"
        )
    service = build_service(
        dataclasses.replace(
            spec, num_shards=1, seed=derive_seed(spec.seed, "pshard", shard)
        ),
        fault_plan_factory=None if plan is None else lambda _local: plan,
        scenario_factory=lambda _local: spec.build_scenario(shard),
    )
    clients = start_workload(service, spec)

    start = wallclock_now()
    service.run_until(spec.horizon)
    wall = wallclock_now() - start

    committed = sum(client.stats.completed for client in clients)
    digests = tuple(service.state_digests(0, correct_only=False))
    counters = service.perf_counters()
    violations = tuple(
        [f"assumption: {v}" for v in service.assumption_violations[0]]
        + [f"amnesia: {v}" for v in service.amnesia_hazards[0]]
    )
    deterministic = {
        "shard": shard,
        "digests": list(digests),
        "applied": service.applied_commands(0),
        "committed": committed,
        "consistent": service.is_consistent(),
        "counters": counters,
        "violations": list(violations),
    }
    return ShardResult(
        shard=shard,
        events=service.scheduler.executed,
        messages=service.systems[0].stats.total_sent,
        committed=committed,
        applied=service.applied_commands(0),
        digests=digests,
        consistent=service.is_consistent(),
        counters=counters,
        violations=violations,
        wall_seconds=wall,
        fingerprint=fingerprint(deterministic),
    )


def _run_shard_payload(payload: Dict) -> Dict:
    """Worker entry point (module-level, dict-in/dict-out — see
    :mod:`repro.util.parallel` for why)."""
    spec = ServiceSpec.from_dict(payload["spec"])
    plan = payload["plan"]
    if plan is not None:
        plan = FaultPlan.from_dict(plan, n=spec.n, t=spec.t)
    return run_shard(spec, payload["shard"], plan).to_dict()


@dataclasses.dataclass(frozen=True)
class ParallelRunReport:
    """The deterministic merge of every shard's result.

    ``run_fingerprint`` digests the ordered per-shard fingerprints (shard 0
    first), so it is byte-identical across worker counts; ``wall_seconds`` is
    the only field that varies between runs.
    """

    spec: ServiceSpec
    workers: int
    shards: Tuple[ShardResult, ...]
    events: int
    messages: int
    committed: int
    applied: int
    consistent: bool
    counters: Dict[str, int]
    violations: Tuple[str, ...]
    wall_seconds: float
    run_fingerprint: str

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec.to_dict(),
            "workers": self.workers,
            "shards": [result.to_dict() for result in self.shards],
            "events": self.events,
            "messages": self.messages,
            "committed": self.committed,
            "applied": self.applied,
            "consistent": self.consistent,
            "counters": dict(self.counters),
            "violations": list(self.violations),
            "wall_seconds": self.wall_seconds,
            "run_fingerprint": self.run_fingerprint,
        }


def merge_shard_results(
    spec: ServiceSpec,
    results: List[ShardResult],
    workers: int,
    wall_seconds: float,
) -> ParallelRunReport:
    """Fold per-shard results — **in shard order** — into one report.

    Totals are sums, counters fold with
    :func:`~repro.core.interfaces.fold_counters` (high-water marks with
    ``max``), digests stay per shard, violations concatenate with a shard
    label, and the run fingerprint digests the ordered per-shard
    fingerprints.  Nothing here reads a clock or an rng, so the merge is a
    pure function of the (ordered) results.
    """
    ordered = sorted(results, key=lambda result: result.shard)
    if [result.shard for result in ordered] != list(range(spec.num_shards)):
        raise ValueError(
            f"expected one result per shard 0..{spec.num_shards - 1}, got "
            f"{[result.shard for result in ordered]}"
        )
    counters: Dict[str, int] = {}
    for result in ordered:
        fold_counters(counters, result.counters)
    violations = tuple(
        f"shard {result.shard}: {violation}"
        for result in ordered
        for violation in result.violations
    )
    run_fingerprint = fingerprint(
        {
            "schema": 1,
            "seed": spec.seed,
            "num_shards": spec.num_shards,
            "shard_fingerprints": [result.fingerprint for result in ordered],
        }
    )
    return ParallelRunReport(
        spec=spec,
        workers=workers,
        shards=tuple(ordered),
        events=sum(result.events for result in ordered),
        messages=sum(result.messages for result in ordered),
        committed=sum(result.committed for result in ordered),
        applied=sum(result.applied for result in ordered),
        consistent=all(result.consistent for result in ordered),
        counters=counters,
        violations=violations,
        wall_seconds=wall_seconds,
        run_fingerprint=run_fingerprint,
    )


def run_parallel_service(
    spec: ServiceSpec,
    workers: int = 0,
    plans: Optional[Dict[int, FaultPlan]] = None,
) -> ParallelRunReport:
    """Run every shard of *spec* and merge deterministically.

    ``workers=0`` (or 1) runs the shards inline in this process, in shard
    order; ``workers=N`` fans them out over ``N`` worker processes.  Both
    paths execute the identical :func:`run_shard` payloads and fold results
    in shard order, so the report's ``run_fingerprint`` — and every
    deterministic field — is byte-identical across worker counts.

    ``plans`` maps shard index -> that shard's fault plan; unlisted shards
    run fault-free.
    """
    plans = plans or {}
    for shard in plans:
        if not 0 <= shard < spec.num_shards:
            raise ValueError(
                f"plans references shard {shard}, valid range is "
                f"[0, {spec.num_shards})"
            )
    payloads = [
        {
            "spec": spec.to_dict(),
            "shard": shard,
            "plan": plans[shard].to_dict() if shard in plans else None,
        }
        for shard in range(spec.num_shards)
    ]
    start = wallclock_now()
    raw = run_tasks(_run_shard_payload, payloads, workers=workers)
    wall = wallclock_now() - start
    results = [ShardResult.from_dict(data) for data in raw]
    return merge_shard_results(spec, results, workers=workers, wall_seconds=wall)

"""Parallel shard execution with a deterministic merge.

:class:`~repro.service.sharding.ShardedService` multiplexes ``S`` independent
shard groups on **one** event loop — coherent, but bounded by a single core.
This module is the scale-out path: each shard's event loop runs in its own
worker process and the per-shard run records are merged **deterministically**,
so a seeded run is byte-identical regardless of worker count.  A run is
described by the same :class:`~repro.service.sharding.ServiceSpec` every other
harness uses, plus an optional fault plan per shard.

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
  differs, so per-shard records are trivially byte-identical;
* the merge (:func:`~repro.analysis.service_metrics.merge_records`) folds
  per-shard records **in shard order, never completion order** (the
  :mod:`repro.util.parallel` discipline), so the merged record and its
  fingerprint are too.

What may NOT cross a shard boundary
-----------------------------------
Anything that would couple two shards' event loops breaks the decomposition:
cross-shard client sessions (a client here drives exactly one shard),
cross-shard transactions or reads, a shared random stream, and any use of one
global virtual clock for cross-shard timing.  Virtual time is per shard, so
the merged record's leader-change instants are a union over independent
clocks.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.analysis.service_metrics import RunRecord, merge_records, record_run
from repro.service.clients import start_workload
from repro.service.sharding import ServiceSpec, build_service
from repro.simulation.faults import FaultPlan
from repro.util.parallel import run_tasks
from repro.util.rng import derive_seed


def run_shard(
    spec: ServiceSpec, shard: int, plan: Optional[FaultPlan] = None
) -> RunRecord:
    """Run *shard* of *spec* to the horizon — the pure per-shard function.

    Builds a self-contained single-shard :class:`ShardedService` on its own
    virtual clock: *spec* with ``num_shards=1`` and the shard seed
    ``derive_seed(spec.seed, "pshard", shard)``, but the scenario the whole
    deployment gives this shard — ``spec.build_scenario(shard)``, the *global*
    index and the *run* seed, so the default star's centre rotates across
    shards exactly as in the multiplexed deployment — *plan* (``None`` runs
    fault-free) and ``spec.num_clients`` shard-local closed-loop clients.

    ``workers=0`` and ``workers=N`` paths of :func:`run_parallel_service`
    both land here with identical arguments; the record is a pure function
    of them.
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
    clients = start_workload(service, spec, record_history=True)
    service.run_until(spec.horizon)
    return record_run(service, clients)


def _run_shard_payload(payload: Dict) -> Dict:
    """Worker entry point (module-level, dict-in/dict-out — see
    :mod:`repro.util.parallel` for why)."""
    spec = ServiceSpec.from_dict(payload["spec"])
    plan = payload["plan"]
    if plan is not None:
        plan = FaultPlan.from_dict(plan, n=spec.n, t=spec.t)
    return run_shard(spec, payload["shard"], plan).to_dict()


def run_parallel_service(
    spec: ServiceSpec,
    workers: int = 0,
    plans: Optional[Dict[int, FaultPlan]] = None,
) -> RunRecord:
    """Run every shard of *spec* and merge their records deterministically.

    ``workers=0`` (or 1) runs the shards inline in this process, in shard
    order; ``workers=N`` fans them out over ``N`` worker processes.  Both
    paths execute the identical :func:`run_shard` payloads and fold the
    records in shard order, so the merged record — fingerprint included — is
    byte-identical across worker counts.

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
    raw = run_tasks(_run_shard_payload, payloads, workers=workers)
    return merge_records([RunRecord.from_dict(data) for data in raw])

"""The total map from source module to ledger layer.

Every ``src/repro/**/*.py`` module is listed by hand: a module added to the
program fails ``perfbench/tests`` until someone decides which layer's bill its
calls belong on.  Layers are module families, named after the packages, so a
regression in the traced run names code a reader can open.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Layers that get ``<layer>.calls_per_op`` / ``<layer>.self_share`` metrics.
LAYERS = (
    "simulation.scheduler",
    "simulation.network",
    "simulation.process",
    "simulation.faults",
    "assumptions",
    "core",
    "consensus",
    "consensus.leases",
    "storage",
    "service",
    "service.clients",
)
#: Program code outside the serving path (tooling, analysis, utilities).
OTHER = "other"
#: The benchmark's own code: load generator, span wrappers, observer.
PERFBENCH = "perfbench"

MODULE_LAYER: Dict[str, str] = {
    "repro/__init__.py": OTHER,
    "repro/analysis/__init__.py": OTHER,
    "repro/analysis/bounds.py": OTHER,
    "repro/analysis/experiments.py": OTHER,
    "repro/analysis/metrics.py": OTHER,
    "repro/analysis/service_metrics.py": OTHER,
    "repro/analysis/trace.py": OTHER,
    "repro/assumptions/__init__.py": "assumptions",
    "repro/assumptions/base.py": "assumptions",
    "repro/assumptions/growing.py": "assumptions",
    "repro/assumptions/scenarios.py": "assumptions",
    "repro/assumptions/star.py": "assumptions",
    "repro/baselines/__init__.py": OTHER,
    "repro/baselines/heartbeat.py": OTHER,
    "repro/baselines/message_pattern.py": OTHER,
    "repro/baselines/messages.py": OTHER,
    "repro/baselines/t_source.py": OTHER,
    "repro/channels/__init__.py": "simulation.network",
    "repro/channels/lossy.py": "simulation.network",
    "repro/channels/messages.py": "simulation.network",
    "repro/channels/reliable.py": "simulation.network",
    "repro/consensus/__init__.py": "consensus",
    "repro/consensus/batching.py": "consensus",
    "repro/consensus/commands.py": "consensus",
    "repro/consensus/instance.py": "consensus",
    "repro/consensus/leases.py": "consensus.leases",
    "repro/consensus/messages.py": "consensus",
    "repro/consensus/replicated_log.py": "consensus",
    "repro/consensus/stack.py": "consensus",
    "repro/core/__init__.py": "core",
    "repro/core/composition.py": "core",
    "repro/core/config.py": "core",
    "repro/core/figure1.py": "core",
    "repro/core/figure2.py": "core",
    "repro/core/figure3.py": "core",
    "repro/core/figure_fg.py": "core",
    "repro/core/interfaces.py": "core",
    "repro/core/messages.py": "core",
    "repro/core/omega_base.py": "core",
    "repro/core/state.py": "core",
    "repro/fuzz/__init__.py": OTHER,
    "repro/fuzz/campaign.py": OTHER,
    "repro/fuzz/corpus.py": OTHER,
    "repro/fuzz/coverage.py": OTHER,
    "repro/fuzz/executor.py": OTHER,
    "repro/fuzz/linearizability.py": OTHER,
    "repro/fuzz/minimize.py": OTHER,
    "repro/fuzz/mutators.py": OTHER,
    "repro/lint/__init__.py": OTHER,
    "repro/lint/__main__.py": OTHER,
    "repro/lint/checkers/__init__.py": OTHER,
    "repro/lint/checkers/cnt002.py": OTHER,
    "repro/lint/checkers/det001.py": OTHER,
    "repro/lint/checkers/msg003.py": OTHER,
    "repro/lint/checkers/pkl005.py": OTHER,
    "repro/lint/checkers/slt004.py": OTHER,
    "repro/lint/report.py": OTHER,
    "repro/lint/walker.py": OTHER,
    "repro/runtime/__init__.py": OTHER,
    "repro/runtime/asyncio_runtime.py": OTHER,
    "repro/service/__init__.py": "service",
    "repro/service/clients.py": "service.clients",
    "repro/service/replica.py": "service",
    "repro/service/sharding.py": "service",
    "repro/service/state_machine.py": "service",
    "repro/simulation/__init__.py": "simulation.process",
    "repro/simulation/adversary.py": "simulation.faults",
    "repro/simulation/corruption.py": "simulation.faults",
    "repro/simulation/crash.py": "simulation.faults",
    "repro/simulation/delays.py": "assumptions",
    "repro/simulation/events.py": "simulation.scheduler",
    "repro/simulation/faults.py": "simulation.faults",
    "repro/simulation/network.py": "simulation.network",
    "repro/simulation/parallel.py": OTHER,
    "repro/simulation/process.py": "simulation.process",
    "repro/simulation/scheduler.py": "simulation.scheduler",
    "repro/simulation/system.py": "simulation.process",
    "repro/storage/__init__.py": "storage",
    "repro/storage/compaction.py": "storage",
    "repro/storage/snapshot.py": "storage",
    "repro/storage/stable_store.py": "storage",
    "repro/system_builders.py": OTHER,
    "repro/testing.py": OTHER,
    "repro/util/__init__.py": OTHER,
    "repro/util/parallel.py": OTHER,
    "repro/util/rng.py": OTHER,
    "repro/util/tables.py": OTHER,
    "repro/util/validation.py": OTHER,
    "repro/util/wallclock.py": OTHER,
}


def layer_of(filename: str) -> Optional[str]:
    """Layer of the code in *filename* (a profiler path), ``None`` for code
    that is neither the program's nor the benchmark's (stdlib, builtins)."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/src/repro/")
    if marker >= 0:
        return MODULE_LAYER.get(path[marker + len("/src/") :], OTHER)
    if "/perfbench/" in path:
        return PERFBENCH
    return None

"""Measurement, tracing and experiment harness."""

from repro.analysis.bounds import BoundsAudit, audit_bounds
from repro.analysis.experiments import (
    ExperimentResult,
    build_system,
    run_omega_experiment,
    summarize_run,
)
from repro.analysis.metrics import (
    LeaderPoller,
    LeaderSample,
    MessageStats,
    RoundClock,
    component_agreed_leaders,
    component_leaders,
    reachable_components,
    round_clock,
)
from repro.analysis.service_metrics import RunRecord, record_run
from repro.analysis.trace import TraceEvent, Tracer

__all__ = [
    "BoundsAudit",
    "ExperimentResult",
    "LeaderPoller",
    "LeaderSample",
    "MessageStats",
    "RoundClock",
    "RunRecord",
    "TraceEvent",
    "Tracer",
    "audit_bounds",
    "build_system",
    "component_agreed_leaders",
    "component_leaders",
    "reachable_components",
    "record_run",
    "round_clock",
    "run_omega_experiment",
    "summarize_run",
]

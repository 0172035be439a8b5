"""Measurement, tracing and experiment harness."""

from repro.analysis.bounds import BoundsAudit, audit_bounds
from repro.analysis.experiments import (
    ExperimentResult,
    build_system,
    compare_algorithms,
    run_omega_experiment,
    summarize_run,
)
from repro.analysis.metrics import (
    AvailabilitySampler,
    LeaderPoller,
    LeaderSample,
    MessageStats,
    RoundClock,
    component_agreed_leaders,
    component_leaders,
    reachable_components,
    round_clock,
    summarize_levels,
)
from repro.analysis.service_metrics import RunRecord, record_run
from repro.analysis.trace import TraceEvent, Tracer

__all__ = [
    "AvailabilitySampler",
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
    "compare_algorithms",
    "component_agreed_leaders",
    "component_leaders",
    "reachable_components",
    "record_run",
    "round_clock",
    "run_omega_experiment",
    "summarize_levels",
    "summarize_run",
]

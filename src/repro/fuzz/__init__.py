"""Coverage-guided fault-scenario fuzzing for the replicated service stack.

The subsystem closes a feedback loop over the fault-plan engine and the
service layer, the way a coverage-guided fuzzer closes one over a program:

* :mod:`~repro.fuzz.corpus` — serialized seed plans (``FaultPlan.to_dict``
  round-trip), deduplicated by canonical fingerprint, persisted one JSON file
  per entry;
* :mod:`~repro.fuzz.executor` — deterministic ``(spec, plan)`` executions
  (a :class:`~repro.service.sharding.ServiceSpec` and a fault plan) of the
  *real* stack, each returning the run's
  :class:`~repro.analysis.service_metrics.RunRecord` with its invariant
  verdicts, and the behavioural feature harvest projected from it;
* :mod:`~repro.fuzz.linearizability` — a real Wing–Gong checker validating
  recorded client histories against the key-value specification;
* :mod:`~repro.fuzz.coverage` — log2-bucketed feature coverage, the novelty
  signal that decides which mutants earn a corpus slot;
* :mod:`~repro.fuzz.mutators` — structure-aware plan mutation (splice, drop,
  retime around observed leader changes, probability perturbation), every
  mutant re-validated against the fault budget and the amnesia admission;
* :mod:`~repro.fuzz.minimize` — delta-debugging plus timing shrink, emitting
  deterministic regression tests from findings;
* :mod:`~repro.fuzz.campaign` — the multiprocessing campaign runner whose
  merged report is reproducible bit-for-bit across worker counts.

Only the probes are imported here: ``import repro.fuzz.executor`` (which a
benchmark run does) must not pay for the campaign stack and
``multiprocessing``.  Import the campaign, corpus, coverage, mutation and
minimisation names from their modules.
"""

from repro.fuzz.executor import (
    FUZZ_BASELINE,
    Violation,
    harvest_features,
    run_scenario,
)
from repro.fuzz.linearizability import (
    LinearizabilityVerdict,
    apply_kv,
    check_history,
    sequential_history,
)

__all__ = [
    "FUZZ_BASELINE",
    "LinearizabilityVerdict",
    "Violation",
    "apply_kv",
    "check_history",
    "harvest_features",
    "run_scenario",
    "sequential_history",
]

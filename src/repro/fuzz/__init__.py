"""Coverage-guided fault-scenario fuzzing for the replicated service stack.

The subsystem closes a feedback loop over the fault-plan engine and the
service layer, the way a coverage-guided fuzzer closes one over a program:

* :mod:`~repro.fuzz.corpus` — serialized seed plans (``FaultPlan.to_dict``
  round-trip), deduplicated by canonical fingerprint, persisted one JSON file
  per entry;
* :mod:`~repro.fuzz.executor` — deterministic ``(spec, plan)`` executions
  (a :class:`~repro.service.sharding.ServiceSpec` and a fault plan) of the
  *real* stack with invariant probes (per-position
  agreement, exactly-once sessions, digest convergence, durability of
  acknowledged writes) and a behavioural feature harvest;
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
"""

from repro.fuzz.campaign import (
    CampaignConfig,
    CampaignReport,
    CampaignRunner,
    Finding,
    run_campaign,
)
from repro.fuzz.corpus import (
    Corpus,
    CorpusEntry,
    amnesia_witness_plan,
    benign_seed_plans,
    plan_fingerprint,
    seed_corpus,
)
from repro.fuzz.coverage import CoverageMap, bucket, signature
from repro.fuzz.executor import (
    FUZZ_BASELINE,
    ExecutionResult,
    Violation,
    check_invariants,
    harvest_features,
    run_scenario,
)
from repro.fuzz.linearizability import (
    LinearizabilityVerdict,
    apply_kv,
    check_history,
    sequential_history,
)
from repro.fuzz.minimize import (
    MinimizationResult,
    ddmin,
    emit_regression_test,
    minimize,
)
from repro.fuzz.mutators import MutationEngine

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "CampaignRunner",
    "Corpus",
    "CorpusEntry",
    "CoverageMap",
    "ExecutionResult",
    "FUZZ_BASELINE",
    "Finding",
    "LinearizabilityVerdict",
    "MinimizationResult",
    "MutationEngine",
    "Violation",
    "amnesia_witness_plan",
    "apply_kv",
    "benign_seed_plans",
    "bucket",
    "check_history",
    "check_invariants",
    "ddmin",
    "emit_regression_test",
    "harvest_features",
    "minimize",
    "plan_fingerprint",
    "run_campaign",
    "run_scenario",
    "seed_corpus",
    "sequential_history",
    "signature",
]

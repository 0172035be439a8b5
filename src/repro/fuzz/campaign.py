"""Coverage-guided fuzzing campaigns over fault scenarios.

The :class:`CampaignRunner` closes the loop around the pieces of this
package: execute corpus seeds, bucket their behavioural features
(:mod:`~repro.fuzz.coverage`), keep interesting mutants as new seeds
(:mod:`~repro.fuzz.mutators`), report invariant violations as findings and
shrink each finding to a minimal deterministic counterexample
(:mod:`~repro.fuzz.minimize`) with a ready-to-commit regression test.

**Determinism across worker counts.**  Executions are pure functions of
``(spec, plan)`` dictionaries, so they can run anywhere; what could diverge
is the *campaign state* (coverage map, corpus, findings) that decides the
next round's mutants.  The runner therefore generates each round's task batch
*before* executing it — every task's rng is derived as
``derive_seed(campaign seed, "task", round, slot)`` — and folds results back
in task order, never completion order.  A campaign with 8 workers, 1 worker
or an inline loop walks the identical sequence of corpus states and produces
findings with identical fingerprints; the worker pool only changes wall-clock
time.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.executor import FUZZ_BASELINE, ExecutionResult, run_scenario
from repro.fuzz.minimize import emit_regression_test, minimize
from repro.fuzz.mutators import MutationEngine
from repro.service.sharding import ServiceSpec
from repro.simulation.faults import FaultPlan
from repro.util.parallel import run_tasks
from repro.util.rng import RandomSource, derive_seed


def _execute_payload(payload: Dict) -> Dict:
    """Worker entry point: run one serialized task (must stay module-level and
    dict-in/dict-out so any multiprocessing start method can ship it)."""
    spec = ServiceSpec.from_dict(payload["spec"])
    plan = FaultPlan.from_dict(payload["plan"])
    return run_scenario(spec, plan).to_dict()


@dataclasses.dataclass
class CampaignConfig:
    """Knobs of one campaign run."""

    spec: ServiceSpec = FUZZ_BASELINE
    seed: int = 0
    #: Total executions (mutation rounds stop when the budget is spent).
    max_executions: int = 200
    #: Tasks generated (and possibly executed concurrently) per round.
    round_size: int = 8
    #: Worker processes; 0 or 1 executes inline (same results, one process).
    workers: int = 0
    #: Reject mutants that admit quorum amnesia (storage-off campaigns that
    #: want to stay within the safe envelope set this; violation *hunts* and
    #: storage-on campaigns leave it off).
    require_quorum_memory: bool = False
    #: Adversary names cycled per task ("swap adversaries" mutation); None
    #: entries mean plan-only executions.
    adversaries: Tuple[Optional[str], ...] = (None,)
    #: Vary the service seed per task (workload/election diversity).  Off by
    #: default: one spec seed keeps findings trivially comparable.
    vary_exec_seed: bool = False
    #: Findings kept (deduplicated by violation kind).
    max_findings: int = 4
    #: Stop the campaign at the first finding (hunt mode).
    stop_on_first_finding: bool = False
    #: Oracle executions granted to each finding's minimization.
    minimize_budget: int = 100


@dataclasses.dataclass
class Finding:
    """One confirmed invariant violation, minimized and replayable."""

    kind: str
    detail: str
    parent: str  # corpus entry the violating plan descends from
    spec_data: Dict
    plan_data: Dict
    fingerprint: str
    minimized_plan_data: Optional[Dict] = None
    minimized_events: int = 0
    minimize_executions: int = 0
    regression_test: Optional[str] = None

    def spec(self) -> ServiceSpec:
        return ServiceSpec.from_dict(self.spec_data)

    def plan(self) -> FaultPlan:
        return FaultPlan.from_dict(self.plan_data)

    def minimized_plan(self) -> Optional[FaultPlan]:
        if self.minimized_plan_data is None:
            return None
        return FaultPlan.from_dict(self.minimized_plan_data)

    def replay(self) -> ExecutionResult:
        """Re-execute the finding's exact ``(spec, plan)`` pair."""
        return run_scenario(self.spec(), self.plan())

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "parent": self.parent,
            "spec": dict(self.spec_data),
            "plan": dict(self.plan_data),
            "fingerprint": self.fingerprint,
            "minimized_plan": self.minimized_plan_data,
            "minimized_events": self.minimized_events,
            "minimize_executions": self.minimize_executions,
        }


@dataclasses.dataclass
class CampaignReport:
    """Merged, reproducible summary of one campaign."""

    executions: int
    rounds: int
    corpus_size: int
    seeds_skipped: Tuple[str, ...]
    coverage_pairs: int
    coverage_signatures: int
    findings: Tuple[Finding, ...]
    violations_seen: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        lines = [
            f"executions={self.executions} rounds={self.rounds} "
            f"corpus={self.corpus_size} coverage_pairs={self.coverage_pairs} "
            f"signatures={self.coverage_signatures}",
        ]
        if self.seeds_skipped:
            lines.append(f"seeds skipped by admission: {list(self.seeds_skipped)}")
        if not self.findings:
            lines.append("no invariant violations")
        for finding in self.findings:
            size = (
                f", minimized to {finding.minimized_events} event(s)"
                if finding.minimized_plan_data is not None
                else ""
            )
            lines.append(
                f"FINDING [{finding.kind}] from seed {finding.parent!r}{size}: "
                f"{finding.detail}"
            )
        return "\n".join(lines)


class CampaignRunner:
    """Runs one coverage-guided campaign to completion."""

    def __init__(self, config: CampaignConfig, corpus: Corpus) -> None:
        self.config = config
        self.corpus = corpus
        self.coverage = CoverageMap()
        admission = (
            config.require_quorum_memory and config.spec.storage_write_cost is None
        )
        self.engine = MutationEngine(
            n=config.spec.n,
            t=config.spec.t,
            horizon=config.spec.horizon,
            require_quorum_memory=admission,
            # Lease-enabled campaigns arm the lease-expiry-edge mutator; with
            # leases off the mutator pool is identical to the seed engine's.
            lease_duration=(
                config.spec.lease_duration if config.spec.leases else None
            ),
        )
        self._admission = admission
        self._findings: List[Finding] = []
        self._seen_kinds: set = set()
        self._executions = 0
        self._violations_seen = 0
        self._rounds = 0
        self._skipped: List[str] = []

    # ------------------------------------------------------------------ task building --
    def _admit(self, entry: CorpusEntry) -> Optional[FaultPlan]:
        try:
            plan = entry.plan()
            plan.validate(
                self.config.spec.n,
                self.config.spec.t,
                require_quorum_memory=self._admission,
            )
        except ValueError:
            return None
        return plan

    def _task_spec(self, rng: RandomSource, slot_seed: int) -> ServiceSpec:
        spec = self.config.spec
        adversary = rng.choice(list(self.config.adversaries))
        changes: Dict[str, object] = {}
        if adversary != spec.adversary:
            changes["adversary"] = adversary
        if self.config.vary_exec_seed:
            changes["seed"] = slot_seed % (2**31)
        return dataclasses.replace(spec, **changes) if changes else spec

    def _seed_round(self) -> List[Tuple[str, ServiceSpec, FaultPlan]]:
        tasks = []
        for entry in self.corpus:
            plan = self._admit(entry)
            if plan is None:
                self._skipped.append(entry.name)
                continue
            tasks.append((entry.name, self.config.spec, plan))
        return tasks

    def _mutation_round(self, round_index: int) -> List[Tuple[str, ServiceSpec, FaultPlan]]:
        entries = list(self.corpus)
        if not entries:
            return []
        # Recency bias: the newest third of the corpus is listed twice, so
        # fresh coverage gets extra mutation energy without starving seeds.
        recent = entries[-max(1, len(entries) // 3) :]
        weighted = entries + recent
        budget = min(
            self.config.round_size, self.config.max_executions - self._executions
        )
        tasks = []
        for slot in range(max(0, budget)):
            slot_seed = derive_seed(self.config.seed, "task", round_index, slot)
            rng = RandomSource(slot_seed)
            parent = rng.choice(weighted)
            parent_plan = self._admit(parent)
            if parent_plan is None:
                continue
            donors = [
                FaultPlan.from_dict(other.plan_data)
                for other in rng.sample(entries, min(2, len(entries)))
            ]
            mutant = self.engine.mutate(
                parent_plan,
                rng,
                donors=donors,
                leader_change_times=parent.leader_change_times,
            )
            if mutant is None:
                continue
            tasks.append((parent.name, self._task_spec(rng, slot_seed), mutant))
        return tasks

    # ------------------------------------------------------------------ execution --
    def _execute(
        self, tasks: Sequence[Tuple[str, ServiceSpec, FaultPlan]]
    ) -> List[ExecutionResult]:
        payloads = [
            {"spec": spec.to_dict(), "plan": plan.to_dict()}
            for _, spec, plan in tasks
        ]
        raw = run_tasks(_execute_payload, payloads, workers=self.config.workers)
        return [ExecutionResult.from_dict(data) for data in raw]

    # ------------------------------------------------------------------ folding --
    def _fold(
        self,
        round_index: int,
        tasks: Sequence[Tuple[str, ServiceSpec, FaultPlan]],
        results: Sequence[ExecutionResult],
    ) -> None:
        for slot, ((parent, spec, plan), result) in enumerate(zip(tasks, results)):
            self._executions += 1
            new_pairs, new_signature = self.coverage.observe(result.features)
            entry = self.corpus.get(parent)
            if round_index == 0 and entry is not None:
                # Seeds learn their own execution metadata in place.
                entry.features = dict(result.features)
                entry.leader_change_times = result.leader_change_times
            elif new_pairs or new_signature:
                self.corpus.add(
                    CorpusEntry(
                        name=f"gen{round_index}-{slot}",
                        plan_data=plan.to_dict(),
                        notes=f"mutant of {parent} (+{new_pairs} coverage pairs)",
                        features=dict(result.features),
                        leader_change_times=result.leader_change_times,
                    )
                )
            self._violations_seen += len(result.violations)
            for violation in result.violations:
                if violation.kind in self._seen_kinds:
                    continue
                if len(self._findings) >= self.config.max_findings:
                    break
                self._seen_kinds.add(violation.kind)
                self._findings.append(
                    Finding(
                        kind=violation.kind,
                        detail=violation.detail,
                        parent=parent,
                        spec_data=spec.to_dict(),
                        plan_data=plan.to_dict(),
                        fingerprint=result.fingerprint,
                    )
                )

    # ------------------------------------------------------------------ main loop --
    def run(self) -> CampaignReport:
        tasks = self._seed_round()
        round_index = 0
        while tasks:
            results = self._execute(tasks)
            self._fold(round_index, tasks, results)
            self._rounds += 1
            if self._findings and self.config.stop_on_first_finding:
                break
            if self._executions >= self.config.max_executions:
                break
            round_index += 1
            tasks = self._mutation_round(round_index)
        self._minimize_findings()
        return CampaignReport(
            executions=self._executions,
            rounds=self._rounds,
            corpus_size=len(self.corpus),
            seeds_skipped=tuple(self._skipped),
            coverage_pairs=self.coverage.pairs_seen,
            coverage_signatures=self.coverage.signatures_seen,
            findings=tuple(self._findings),
            violations_seen=self._violations_seen,
        )

    def _minimize_findings(self) -> None:
        if not self.config.minimize_budget:
            return
        for index, finding in enumerate(self._findings):
            outcome = minimize(
                finding.spec(),
                finding.plan(),
                target_kinds=(finding.kind,),
                budget=self.config.minimize_budget,
            )
            finding.minimized_plan_data = outcome.plan.to_dict()
            finding.minimized_events = outcome.minimized_events
            finding.minimize_executions = outcome.executions_used
            finding.regression_test = emit_regression_test(
                name=f"fuzz_{finding.kind.replace('-', '_')}_{index}",
                spec=finding.spec(),
                plan=outcome.plan,
                kinds=(finding.kind,),
                title=f"{finding.kind} violation found by fuzzing",
            )


def run_campaign(config: CampaignConfig, corpus: Corpus) -> CampaignReport:
    """Convenience wrapper: build a runner and run it."""
    return CampaignRunner(config, corpus).run()


__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "CampaignRunner",
    "Finding",
    "run_campaign",
]

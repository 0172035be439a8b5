"""End-to-end campaign acceptance tests.

These pin the PR's acceptance criteria directly:

* the **hunt** campaign (storage off, quorum-memory admission on) rediscovers
  the PR-5 quorum-amnesia agreement violation from the seed corpus and
  minimizes it to a handful of events;
* every finding replays byte-identically from its ``(spec, plan)`` pair;
* the **soak** campaign (storage on, pinned seeds, >= 200 executions)
  reports zero invariant violations;
* the merged report is independent of the ``CampaignRunner`` worker count.

The soak and determinism tests each run a few hundred simulations; they are
the slowest tests in the repo (~10 s each) but they ARE the deliverable.
"""

import dataclasses

import pytest

from repro.fuzz.campaign import CampaignConfig, CampaignRunner, run_campaign
from repro.fuzz.corpus import seed_corpus
from repro.fuzz.executor import FUZZ_BASELINE
from repro.simulation.faults import FaultPlan


def hunt_config(**overrides):
    base = dict(
        spec=dataclasses.replace(FUZZ_BASELINE, seed=3),
        seed=11,
        max_executions=40,
        stop_on_first_finding=True,
        minimize_budget=80,
    )
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.fixture(scope="module")
def hunt_report():
    return run_campaign(hunt_config(), seed_corpus(3, 1))


class TestHuntCampaign:
    def test_rediscovers_the_quorum_amnesia_violation(self, hunt_report):
        assert not hunt_report.ok
        kinds = {finding.kind for finding in hunt_report.findings}
        assert "agreement" in kinds

    def test_finding_comes_from_the_witness_seed(self, hunt_report):
        agreement = next(f for f in hunt_report.findings if f.kind == "agreement")
        assert agreement.parent == "amnesia-witness"

    def test_minimizes_to_at_most_15_events(self, hunt_report):
        agreement = next(f for f in hunt_report.findings if f.kind == "agreement")
        assert agreement.minimized_events <= 15
        assert agreement.minimized_events <= len(agreement.plan_data["events"])
        # The minimized plan still validates and still has the restart core.
        minimized = FaultPlan.from_dict(agreement.minimized_plan_data, n=3, t=1)
        assert minimized.has_recoveries()

    def test_findings_replay_byte_identically(self, hunt_report):
        for finding in hunt_report.findings:
            replayed = finding.replay()
            assert replayed.fingerprint == finding.fingerprint
            assert finding.kind in {v.kind for v in replayed.violations}

    def test_regression_test_is_emitted_and_valid(self, hunt_report):
        agreement = next(f for f in hunt_report.findings if f.kind == "agreement")
        assert agreement.regression_test is not None
        compile(agreement.regression_test, "<emitted>", "exec")

    def test_inadmissible_seeds_are_skipped_not_run(self):
        # With quorum-memory admission on (modelling the paper's assumption
        # that a quorum never forgets), restart-bearing seeds are excluded —
        # including the witness — and the campaign stays clean.
        config = hunt_config(require_quorum_memory=True, max_executions=8)
        report = run_campaign(config, seed_corpus(3, 1))
        assert "amnesia-witness" in report.seeds_skipped
        assert len(report.seeds_skipped) >= 2
        assert report.ok


class TestSoakCampaign:
    def test_storage_on_campaign_is_clean(self):
        # Acceptance criterion: >= 200 pinned-seed executions with stable
        # storage enabled report zero invariant violations.
        config = CampaignConfig(
            spec=dataclasses.replace(FUZZ_BASELINE, seed=5, storage_write_cost=0.0),
            seed=21,
            max_executions=200,
            round_size=16,
            adversaries=(None, "random", "leader-hunter"),
            minimize_budget=0,
        )
        report = run_campaign(config, seed_corpus(3, 1, include_amnesia_witness=False))
        assert report.executions >= 200
        assert report.ok, report.describe()
        assert report.findings == ()
        # The feedback loop actually fed back: the corpus grew beyond the
        # seeds and coverage accumulated distinct behaviours.
        assert report.corpus_size > 6
        assert report.coverage_pairs > 20


class TestWorkerDeterminism:
    def test_report_is_worker_count_independent(self):
        def run(workers):
            config = CampaignConfig(
                spec=dataclasses.replace(FUZZ_BASELINE, seed=7, storage_write_cost=0.0),
                seed=13,
                max_executions=24,
                round_size=8,
                workers=workers,
                minimize_budget=0,
            )
            runner = CampaignRunner(config, seed_corpus(3, 1, include_amnesia_witness=False))
            report = runner.run()
            names = runner.corpus.names()
            fingerprints = [runner.corpus.get(n).fingerprint() for n in names]
            return report, names, fingerprints

        serial_report, serial_names, serial_fps = run(workers=0)
        pooled_report, pooled_names, pooled_fps = run(workers=3)
        assert serial_report.executions == pooled_report.executions
        assert serial_report.coverage_pairs == pooled_report.coverage_pairs
        assert serial_report.coverage_signatures == pooled_report.coverage_signatures
        assert serial_names == pooled_names
        assert serial_fps == pooled_fps

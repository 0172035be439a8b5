#!/usr/bin/env python
"""Coverage-guided fault fuzzing: hunt a known bug, then soak the fixed stack.

Two pinned-seed campaigns over the full service stack (Omega elections,
consensus, sharded KV store, closed-loop clients), both built from the same
seed corpus (``repro.fuzz.seed_corpus``):

* **Hunt** — stable storage OFF.  The corpus carries the PR-5 quorum-amnesia
  witness (two followers restarted back to back inside the catch-up repair
  window, the old leader's links cut).  The campaign must *rediscover* the
  agreement violation, minimize the schedule with ddmin + timing shrink, and
  replay the finding byte-identically from its ``(spec, plan)`` pair — the
  whole counterexample lifecycle in a few seconds.

* **Soak** — stable storage ON, same mutation engine, adversaries rotating
  through the task seeds.  Every invariant probe (per-position agreement,
  exactly-once sessions, digest convergence, durability, Wing–Gong
  linearizability over the recorded client histories) must stay silent: the
  durability fix holds under schedules nobody hand-wrote.

The demo exits non-zero unless the hunt rediscovers and minimizes the
violation (<= 15 events, byte-identical replay) AND the soak is clean.

Run with:  python examples/fuzz_demo.py [--quick]
"""

import argparse
import dataclasses

from repro.fuzz import FUZZ_BASELINE, CampaignConfig, run_campaign, seed_corpus
from repro.simulation import FaultPlan
from repro.util.tables import format_table

N, T = 3, 1


def hunt(minimize_budget: int):
    config = CampaignConfig(
        spec=dataclasses.replace(FUZZ_BASELINE, seed=3),  # storage off
        seed=11,
        max_executions=40,
        stop_on_first_finding=True,
        minimize_budget=minimize_budget,
    )
    return run_campaign(config, seed_corpus(N, T))


def soak(max_executions: int):
    config = CampaignConfig(
        spec=dataclasses.replace(FUZZ_BASELINE, seed=5, storage_write_cost=0.0),
        seed=21,
        max_executions=max_executions,
        round_size=16,
        adversaries=(None, "random", "leader-hunter"),
        minimize_budget=0,
    )
    return run_campaign(config, seed_corpus(N, T, include_amnesia_witness=False))


def report_table(title, report):
    print(
        format_table(
            ["executions", "rounds", "corpus", "coverage pairs", "signatures", "findings"],
            [
                [
                    report.executions,
                    report.rounds,
                    report.corpus_size,
                    report.coverage_pairs,
                    report.coverage_signatures,
                    len(report.findings),
                ]
            ],
            title=title,
        )
    )
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller soak budget (CI smoke)"
    )
    args = parser.parse_args()
    soak_budget = 48 if args.quick else 200

    print("=== hunt: stable storage OFF, amnesia witness in the corpus ===")
    hunt_report = hunt(minimize_budget=80)
    report_table("Hunt campaign", hunt_report)

    agreement = next(
        (f for f in hunt_report.findings if f.kind == "agreement"), None
    )
    if agreement is None:
        raise SystemExit("hunt FAILED: the quorum-amnesia violation was not rediscovered")

    rows = []
    for finding in hunt_report.findings:
        replayed = finding.replay()
        identical = replayed.fingerprint == finding.fingerprint
        rows.append(
            [
                finding.kind,
                finding.parent,
                len(finding.plan_data["events"]),
                finding.minimized_events,
                finding.minimize_executions,
                "yes" if identical else "NO (BUG!)",
            ]
        )
        if not identical:
            raise SystemExit(f"replay of {finding.kind} finding was not byte-identical")
    print(
        format_table(
            ["violation", "from seed", "events", "minimized", "replays used", "replay identical"],
            rows,
            title="Findings (minimized counterexamples)",
        )
    )
    print()
    if agreement.minimized_events > 15:
        raise SystemExit(
            f"minimization FAILED: {agreement.minimized_events} events > 15"
        )
    minimized = FaultPlan.from_dict(agreement.minimized_plan_data, n=N, t=T)
    print("minimized schedule reproducing the agreement violation:")
    for event in minimized.events:
        print(f"  {event}")
    print(f"detail: {agreement.detail[:110]}...")
    print()

    print(f"=== soak: stable storage ON, {soak_budget} mutated executions ===")
    soak_report = soak(max_executions=soak_budget)
    report_table("Soak campaign", soak_report)
    if not soak_report.ok:
        print(soak_report.describe())
        raise SystemExit("soak FAILED: invariant violation with stable storage on")

    print(
        "hunt rediscovered + minimized the quorum-amnesia violation; "
        "storage-on soak is clean: True"
    )


if __name__ == "__main__":
    main()

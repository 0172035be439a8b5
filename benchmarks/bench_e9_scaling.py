"""E9 — cost scaling: message complexity and stabilisation time vs system size.

The paper's cost discussion: every process broadcasts one ALIVE and one SUSPICION
message per round, so the per-round message count is Θ(n²) and only the round
numbers grow without bound.  This benchmark sweeps ``n`` and regenerates messages
per virtual time unit, messages per (receiving) round, and the stabilisation time
of the Figure 3 algorithm under the intermittent star.

A second table per ``n`` reruns the experiment with ``OmegaConfig.quiet_rounds``
(a service extension, not part of the paper): a round that suspects nobody
broadcasts no SUSPICION, so the SUSPICION half of the Θ(n²) is paid only for the
rounds in which someone was late.
"""

import dataclasses

import pytest

from repro.analysis import run_omega_experiment
from repro.assumptions import IntermittentRotatingStarScenario
from repro.core import Figure3Omega
from repro.util.tables import format_table

DURATION = 200.0


@pytest.mark.parametrize("n", [4, 8, 16, 28])
def test_e9_scaling_with_n(benchmark, n):
    t = (n - 1) // 3
    scenario = IntermittentRotatingStarScenario(
        n=n, t=max(1, t), center=0, seed=9000 + n, max_gap=4
    )

    def run():
        return run_omega_experiment(scenario, Figure3Omega, DURATION, seed=9000 + n)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    per_round = (
        result.messages_sent / result.rounds_completed if result.rounds_completed else 0
    )
    row = [
        n,
        max(1, t),
        result.rounds_completed,
        result.messages_sent,
        round(result.messages_per_time_unit(), 1),
        round(per_round, 1),
        round(per_round / (n * n), 2),
        "-" if result.stabilization_time is None else result.stabilization_time,
    ]
    benchmark.extra_info["row"] = row
    print(
        "\n"
        + format_table(
            ["n", "t", "rounds", "messages", "msg/time", "msg/round", "msg/round/n^2", "stab_time"],
            [row],
            title=f"E9: cost scaling at n={n}",
        )
    )
    assert result.stabilized
    # Per-round message cost is Θ(n²): the normalised value stays within a small
    # constant band across the sweep (2 messages per ordered pair per round at most).
    assert per_round / (n * n) < 3.0

    quiet = run_omega_experiment(
        scenario,
        Figure3Omega,
        DURATION,
        seed=9000 + n,
        config=dataclasses.replace(scenario.recommended_omega_config(), quiet_rounds=True),
    )
    paper_cost, paper_stab_time = row[6], row[7]
    # The paper run broadcasts one SUSPICION per round close, the quiet run one per
    # close that names somebody: the ratio is the share of closes that stayed silent.
    silent = 1.0 - quiet.messages_by_tag["SUSPICION"] / result.messages_by_tag["SUSPICION"]
    quiet_row = [
        n,
        quiet.rounds_completed,
        quiet.messages_sent,
        round(quiet.messages_sent / quiet.rounds_completed / (n * n), 2),
        paper_cost,
        "-" if quiet.stabilization_time is None else quiet.stabilization_time,
        paper_stab_time,
        round(silent, 3),
    ]
    benchmark.extra_info["quiet_row"] = quiet_row
    print(
        "\n"
        + format_table(
            [
                "n",
                "rounds",
                "messages",
                "msg/round/n^2",
                "paper msg/round/n^2",
                "stab_time",
                "paper stab_time",
                "silent rounds",
            ],
            [quiet_row],
            title=f"E9: quiet rounds at n={n} (service extension, not in the paper)",
        )
    )
    assert quiet.stabilized
    assert quiet.messages_sent < result.messages_sent

"""E7 — consensus and the replicated log under the star assumption (Theorem 5).

Measures, for two system sizes and a crash pattern, how long the replicated log
takes to deliver a batch of commands submitted at every process, and the message
cost of the whole stack (oracle + consensus).
"""

import pytest

from _harness import scaled
from repro.assumptions import IntermittentRotatingStarScenario
from repro.simulation import FaultPlan
from repro.system_builders import build_consensus_system
from repro.util.tables import format_table

HORIZON = 400.0
CHECK_INTERVAL = 10.0


def run_replication(
    n, t, seed, crash_times, commands_per_process=1, batch_size=1, horizon=HORIZON
):
    scenario = IntermittentRotatingStarScenario(n=n, t=t, center=n - 1, seed=seed, max_gap=4)
    system = build_consensus_system(
        n=n,
        t=t,
        scenario=scenario,
        seed=seed,
        fault_plan=FaultPlan.crashes(crash_times),
        batch_size=batch_size,
    )
    expected = set()
    for shell in system.shells:
        for index in range(commands_per_process):
            command = f"cmd-{shell.pid}-{index}"
            expected.add(command)
            shell.algorithm.submit(command)

    completion_time = None
    time = 0.0
    while time < horizon:
        time += CHECK_INTERVAL
        system.run_until(time)
        delivered_everywhere = all(
            expected <= set(shell.algorithm.log.delivered_commands())
            for shell in system.correct_shells()
        )
        if delivered_everywhere:
            completion_time = time
            break
    system.run_until(horizon)
    return {
        "n": n,
        "t": t,
        "crashes": len(crash_times),
        "completion_time": completion_time,
        "messages": system.stats.total_sent,
        "decided_positions": max(
            len(shell.algorithm.log.decided_log()) for shell in system.correct_shells()
        ),
    }


@pytest.mark.parametrize(
    "n,t,crash_times",
    [
        (5, 2, {}),
        (5, 2, {0: 40.0}),
        (7, 3, {0: 40.0, 1: 90.0}),
    ],
)
def test_e7_replicated_log_completion(benchmark, n, t, crash_times):
    def run():
        return run_replication(n, t, seed=7000 + n + len(crash_times), crash_times=crash_times)

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["row"] = row
    print(
        "\n"
        + format_table(
            list(row.keys()),
            [list(row.values())],
            title=f"E7: replicated log, n={n}, t={t}, {len(crash_times)} crash(es)",
        )
    )
    assert row["completion_time"] is not None, "commands were not delivered everywhere"


def test_e7_long_log_hot_paths(benchmark, quick):
    """A long log (many positions) exercises the drive/decide hot paths.

    The seed implementation rescanned the whole log on every drive tick and
    decision (quadratic in log length), which dominated wall time here; the
    contiguous-prefix cursor and decided-value index make this case linear.  The
    batched variant additionally shows the same workload draining in a fraction
    of the virtual time (many commands per consensus instance).
    """
    commands_per_process = scaled(12, quick, minimum=4)
    horizon = scaled(600.0, quick, minimum=200.0)

    def run():
        unbatched = run_replication(
            5, 2, seed=7300, crash_times={},
            commands_per_process=commands_per_process, batch_size=1, horizon=horizon,
        )
        batched = run_replication(
            5, 2, seed=7300, crash_times={},
            commands_per_process=commands_per_process, batch_size=8, horizon=horizon,
        )
        return unbatched, batched

    unbatched, batched = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["unbatched"] + list(unbatched.values()),
        ["batch=8"] + list(batched.values()),
    ]
    benchmark.extra_info["rows"] = rows
    print(
        "\n"
        + format_table(
            ["variant"] + list(unbatched.keys()),
            rows,
            title=f"E7: long log ({commands_per_process} commands/process)",
        )
    )
    assert unbatched["completion_time"] is not None
    assert batched["completion_time"] is not None
    assert batched["completion_time"] <= unbatched["completion_time"]

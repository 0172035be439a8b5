"""Shared helpers for the benchmark harness.

Every benchmark regenerates the rows of one experiment of the per-experiment index
in ``DESIGN.md`` (E1..E9).  The simulated horizon and system sizes are chosen so
each benchmark completes in seconds; the qualitative shape of the results (who
stabilises, whose variables stay bounded, who keeps churning leaders) is what the
paper's claims are about and is asserted, while the absolute virtual-time numbers
are reported for inspection in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis import ExperimentResult, build_system
from repro.assumptions.base import Scenario
from repro.util.tables import format_table


def scaled(value, quick: bool, factor: float = 0.25, minimum=None):
    """Scale a horizon / workload size down in ``--quick`` smoke mode.

    Returns *value* unchanged in normal runs; ``value * factor`` (at least
    *minimum*, preserving int-ness) when *quick* is set, so the CI smoke job
    exercises every benchmark path in a fraction of the time.
    """
    if not quick:
        return value
    shrunk = value * factor
    if minimum is not None:
        shrunk = max(minimum, shrunk)
    return type(value)(shrunk)


def result_table(results: Sequence[ExperimentResult], title: str) -> str:
    """Format a list of experiment results as the benchmark's report table."""
    return format_table(
        ExperimentResult.row_headers(), [result.as_row() for result in results], title=title
    )


def center_suspicion_metric(
    scenario: Scenario,
    algorithm_cls,
    attribute: str,
    duration: float,
    seed: int,
) -> Dict[str, int]:
    """Return the centre's suspicion metric at 2/3 of the run and at the end.

    ``attribute`` is ``"susp_level"`` for the paper's algorithms and ``"counters"``
    for the baselines; a growing end value means the algorithm lost its guarantee
    for the designated source under that scenario.
    """
    system = build_system(scenario, algorithm_cls, seed=seed)
    system.run_until(2.0 * duration / 3.0)
    mid = max(
        getattr(shell.algorithm, attribute)[scenario.center]
        for shell in system.alive_shells()
    )
    system.run_until(duration)
    end = max(
        getattr(shell.algorithm, attribute)[scenario.center]
        for shell in system.alive_shells()
    )
    return {"mid": mid, "end": end, "growing": end > mid}


def record(benchmark, results: Sequence[ExperimentResult], title: str) -> None:
    """Attach the regenerated rows to the pytest-benchmark record and print them."""
    table = result_table(results, title)
    benchmark.extra_info["rows"] = [result.as_row() for result in results]
    benchmark.extra_info["headers"] = ExperimentResult.row_headers()
    print()
    print(table)

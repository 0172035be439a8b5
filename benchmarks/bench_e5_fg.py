"""E5 — the ``A_{f,g}`` algorithm under growing delays and growing star gaps.

Sweeps growth schedules for ``f`` (star-gap growth) and ``g`` (timeliness growth)
and checks the Section-7 algorithm still stabilises; the plain Figure 3 algorithm is
run on the mildest schedule for comparison.
"""

import pytest

from _harness import record
from repro.analysis import run_omega_experiment
from repro.assumptions import GrowingStarScenario
from repro.core import FgOmega, Figure3Omega

DURATION = 400.0


def make_scenario(f_slope, g_slope, seed):
    return GrowingStarScenario(
        n=5,
        t=2,
        center=2,
        seed=seed,
        max_gap=2,
        f=lambda k: min(6, k // max(1, f_slope)),
        g=lambda rn: min(4.0, g_slope * rn),
    )


@pytest.mark.parametrize("f_slope,g_slope", [(16, 0.01), (8, 0.02), (4, 0.04)])
def test_e5_fg_growth_sweep(benchmark, f_slope, g_slope):
    seed = 5000 + f_slope
    scenario = make_scenario(f_slope, g_slope, seed)

    def run():
        return run_omega_experiment(scenario, FgOmega, DURATION, seed=seed)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        benchmark,
        [result],
        f"E5: A_fg with gap growth 1/{f_slope} and delay growth {g_slope}/round",
    )
    assert result.stabilized and result.leader_is_correct


def test_e5_plain_figure3_on_mild_growth(benchmark):
    """With mild growth the plain Figure 3 algorithm (which ignores f and g) also
    copes — the growing bounds only matter once they outgrow its adaptive window."""
    scenario = make_scenario(16, 0.01, seed=5100)

    def run():
        return run_omega_experiment(scenario, Figure3Omega, DURATION, seed=5100)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, [result], "E5 control: plain Figure 3 under mild growth")
    assert result.stabilized

"""Unit tests of the differences between Figures 1, 2, 3 and the A_{f,g} variant.

Each algorithm adds exactly one guard to the previous one:

* Figure 2 adds the line-``*`` round-window test;
* Figure 3 adds the line-``**`` minimality test;
* the ``A_{f,g}`` variant widens the window by ``f`` and the timeout by ``g``.

The tests below exercise each guard in isolation through the fake environment.
"""

import dataclasses

import pytest

from repro.core.config import OmegaConfig
from repro.core.figure1 import Figure1Omega
from repro.core.figure2 import Figure2Omega
from repro.core.figure3 import Figure3Omega
from repro.core.figure_fg import FgOmega
from repro.testing import FakeEnvironment, deliver_suspicions


def make(cls, pid=0, n=5, t=2, **kwargs):
    env = FakeEnvironment(pid=pid, n=n)
    algorithm = cls(pid=pid, n=n, t=t, **kwargs)
    algorithm.on_start(env)
    return algorithm, env


def raise_level(algorithm, env, suspect, target_level, start_round=1):
    """Raise ``susp_level[suspect]`` to *target_level* with consecutive-round quorums.

    Works for every variant because the suspicion window over consecutive rounds is
    always satisfied and the raised entry stays at (or below) the minimum +1 only if
    other entries are raised too — tests that need the minimality blocked state set
    levels directly instead.
    """
    rn = start_round
    while algorithm.susp_level[suspect] < target_level:
        deliver_suspicions(algorithm, env, rn=rn, suspect=suspect, senders=[0, 1, 2])
        rn += 1
    return rn


class TestFigure1Rule:
    def test_increments_without_window_requirement(self):
        algorithm, env = make(Figure1Omega)
        # Quorum at round 10 only; rounds 9, 8, ... never had quorums.
        deliver_suspicions(algorithm, env, rn=10, suspect=3, senders=[0, 1, 2])
        assert algorithm.susp_level[3] == 1
        deliver_suspicions(algorithm, env, rn=20, suspect=3, senders=[0, 1, 2])
        assert algorithm.susp_level[3] == 2

    def test_variant_name(self):
        assert Figure1Omega(0, 5, 2).variant_name == "figure1"


class TestFigure2WindowRule:
    def test_first_increment_behaves_like_figure1(self):
        # With susp_level[k] == 0 the window is just {rn}: no extra requirement.
        algorithm, env = make(Figure2Omega)
        deliver_suspicions(algorithm, env, rn=10, suspect=3, senders=[0, 1, 2])
        assert algorithm.susp_level[3] == 1

    def test_isolated_quorum_blocked_once_level_positive(self):
        algorithm, env = make(Figure2Omega)
        deliver_suspicions(algorithm, env, rn=10, suspect=3, senders=[0, 1, 2])
        assert algorithm.susp_level[3] == 1
        # Round 20 has a quorum but round 19 does not -> window [19, 20] fails.
        deliver_suspicions(algorithm, env, rn=20, suspect=3, senders=[0, 1, 2])
        assert algorithm.susp_level[3] == 1

    def test_sustained_window_allows_increment(self):
        algorithm, env = make(Figure2Omega)
        deliver_suspicions(algorithm, env, rn=10, suspect=3, senders=[0, 1, 2])
        # Quorum at 19 first, then at 20: the window [19, 20] is now sustained.
        deliver_suspicions(algorithm, env, rn=19, suspect=3, senders=[0, 1, 2])
        deliver_suspicions(algorithm, env, rn=20, suspect=3, senders=[0, 1, 2])
        assert algorithm.susp_level[3] >= 2

    def test_window_length_grows_with_level(self):
        algorithm, env = make(Figure2Omega)
        # Push the level to 2 with consecutive quorums at rounds 1..k.
        raise_level(algorithm, env, suspect=3, target_level=2)
        level = algorithm.susp_level[3]
        # An isolated pair of quorum rounds far away is now too short a window.
        deliver_suspicions(algorithm, env, rn=50, suspect=3, senders=[0, 1, 2])
        deliver_suspicions(algorithm, env, rn=51, suspect=3, senders=[0, 1, 2])
        assert algorithm.susp_level[3] == level

    def test_crashed_process_level_still_grows(self):
        # Lemma 3: sustained quorums (which a crashed process produces at every
        # round) keep increasing the level despite the window test.
        algorithm, env = make(Figure2Omega)
        for rn in range(1, 15):
            deliver_suspicions(algorithm, env, rn=rn, suspect=4, senders=[0, 1, 2])
        assert algorithm.susp_level[4] >= 5


class TestFigure3MinimalityRule:
    def test_entry_above_minimum_not_incremented(self):
        algorithm, env = make(Figure3Omega)
        # Make entry 3 strictly above the minimum by gossip.
        algorithm.susp_level.merge({0: 0, 1: 0, 2: 0, 3: 2, 4: 0})
        deliver_suspicions(algorithm, env, rn=5, suspect=3, senders=[0, 1, 2])
        assert algorithm.susp_level[3] == 2

    def test_entry_at_minimum_incremented(self):
        algorithm, env = make(Figure3Omega)
        deliver_suspicions(algorithm, env, rn=5, suspect=3, senders=[0, 1, 2])
        assert algorithm.susp_level[3] == 1

    def test_spread_never_exceeds_one_under_quorum_stream(self):
        # Lemma 8 at the unit level: hammer one process with quorums at every round;
        # its entry can only go one above the minimum.
        algorithm, env = make(Figure3Omega)
        for rn in range(1, 30):
            deliver_suspicions(algorithm, env, rn=rn, suspect=4, senders=[0, 1, 2])
            assert algorithm.susp_level.spread() <= 1
        assert algorithm.susp_level[4] == 1

    @pytest.mark.parametrize("cls, breaches", [(Figure2Omega, 28), (Figure3Omega, 0)])
    def test_the_registry_counts_each_handler_that_breaks_lemma_8(self, cls, breaches):
        # The same stream with and without the line-** test: Figure 2 raises
        # entry 4 at every round, and each handler that leaves it more than one
        # above the minimum (rounds 2..29) is counted once.
        algorithm, env = make(cls)
        for rn in range(1, 30):
            deliver_suspicions(algorithm, env, rn=rn, suspect=4, senders=[0, 1, 2])
        assert algorithm.counters["lemma8_violations"] == breaches
        assert algorithm.counters["peak_susp_level"] == algorithm.susp_level[4]

    def test_all_entries_can_rise_together(self):
        algorithm, env = make(Figure3Omega)
        for rn in range(1, 10):
            for suspect in range(5):
                deliver_suspicions(
                    algorithm, env, rn=rn, suspect=suspect, senders=[0, 1, 2]
                )
        # Everyone suspected at every round: levels rise but stay within spread 1.
        assert algorithm.susp_level.maximum() > 1
        assert algorithm.susp_level.spread() <= 1


class TestFgVariant:
    def test_defaults_degenerate_to_figure3(self):
        fg = FgOmega(pid=0, n=5, t=2)
        fig3 = Figure3Omega(pid=0, n=5, t=2)
        assert fg._timeout_value() == fig3._timeout_value()
        assert fg._window_start(3, 10) == fig3._window_start(3, 10)

    def test_g_extends_timeout(self):
        fg = FgOmega(pid=0, n=5, t=2, g=lambda rn: 0.5 * rn)
        env = FakeEnvironment(pid=0, n=5)
        fg.on_start(env)
        # receiving_round is 1, so the timeout extension uses g(2) = 1.0.
        assert fg._timeout_value() == pytest.approx(0.0 + 1.0)

    def test_f_widens_window(self):
        fg = FgOmega(pid=0, n=5, t=2, f=lambda rn: 3)
        env = FakeEnvironment(pid=0, n=5)
        fg.on_start(env)
        # With f == 3, even the very first increment needs quorums over the whole
        # window [rn - 0 - 3, rn]: an isolated quorum is not enough...
        deliver_suspicions(fg, env, rn=10, suspect=3, senders=[0, 1, 2])
        assert fg.susp_level[3] == 0
        # ... whereas four consecutive quorum rounds are.
        for rn in (17, 18, 19, 20):
            deliver_suspicions(fg, env, rn=rn, suspect=3, senders=[0, 1, 2])
        assert fg.susp_level[3] == 1
        # A pair of isolated quorums later is again insufficient (it was enough for
        # the plain Figure 3, whose window for level 1 has length 2).
        deliver_suspicions(fg, env, rn=30, suspect=3, senders=[0, 1, 2])
        deliver_suspicions(fg, env, rn=31, suspect=3, senders=[0, 1, 2])
        assert fg.susp_level[3] == 1

    def test_explicit_functions_override_config(self):
        config = OmegaConfig(g=lambda rn: 100.0)
        fg = FgOmega(pid=0, n=5, t=2, config=config, g=lambda rn: 1.0)
        assert fg.config.timeout_extension(5) == 1.0

    def test_explicit_functions_preserve_every_other_config_field(self):
        config = OmegaConfig(alive_period=3.0, round_resync_gap=8)
        fg = FgOmega(pid=0, n=4, t=1, config=config, g=lambda rn: 0.5)
        assert fg.config == dataclasses.replace(config, g=fg.config.g)
        assert fg.config.round_resync_gap == 8

    def test_config_functions_used_when_no_explicit_arguments(self):
        config = OmegaConfig(f=lambda rn: 2, g=lambda rn: 3.0)
        fg = FgOmega(pid=0, n=5, t=2, config=config)
        assert fg.config.window_extension(1) == 2
        assert fg.config.timeout_extension(1) == 3.0

    def test_variant_names(self):
        assert Figure2Omega(0, 5, 2).variant_name == "figure2"
        assert Figure3Omega(0, 5, 2).variant_name == "figure3"
        assert FgOmega(0, 5, 2).variant_name == "figure_fg"

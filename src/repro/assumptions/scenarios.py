"""Concrete behavioural-assumption scenarios.

Each class makes one of the assumptions discussed in the paper executable:

===============================  ==============================================
Scenario                          Paper assumption
===============================  ==============================================
:class:`EventualRotatingStarScenario`     ``A0`` (Section 3): star at **every** round >= RN0
:class:`IntermittentRotatingStarScenario` ``A``  (Section 3): star only at rounds of ``S``
:class:`EventualTSourceScenario`          eventual t-source [2] (fixed Q, timely)
:class:`EventualTMovingSourceScenario`    eventual t-moving source [10] (rotating Q, timely)
:class:`MessagePatternScenario`           message-pattern assumption [16] (fixed Q, winning)
:class:`CombinedMrtScenario`              combined assumption of [19] (fixed Q, mixed)
:class:`RotatingPersecutionScenario`      ablation: ``A`` holds but ``A0`` does not, and
                                          every process is persecuted for ever-growing
                                          stretches of rounds (defeats Figure 1)
:class:`AsynchronousAdversaryScenario`    no assumption at all (negative control)
:class:`ConstantDelayScenario`            every link timely with one constant delay (the
                                          fuzzer's controllable baseline)
===============================  ==============================================

All but the last share the :class:`~repro.assumptions.star.StarDelayModel` machinery;
they differ only in how the star schedule and the background adversary are configured.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.assumptions.base import Scenario
from repro.assumptions.star import (
    TIMELY,
    WINNING,
    EscalatingPersecutionPolicy,
    FixedSlowSetPolicy,
    RandomSlowPolicy,
    SenderBehaviourPolicy,
    StarDelayModel,
    StarSchedule,
    StarTiming,
)
from repro.core.config import OmegaConfig
from repro.simulation.delays import ConstantDelay, DelayModel
from repro.util.validation import validate_process_count


class _StarScenarioBase(Scenario):
    """Shared plumbing of every star-based scenario."""

    def __init__(
        self,
        n: int,
        t: int,
        center: int = 0,
        seed: int = 0,
        first_star_round: int = 8,
        max_gap: int = 1,
        rotation: str = "round_robin",
        point_mode: str = "mixed",
        timing: Optional[StarTiming] = None,
        background: Optional[SenderBehaviourPolicy] = None,
    ) -> None:
        super().__init__(n, t)
        if not 0 <= center < n:
            raise ValueError(f"center must be in [0, {n}), got {center}")
        self._center = center
        self.seed = seed
        self.first_star_round = first_star_round
        self.max_gap = max_gap
        self.rotation = rotation
        self.point_mode = point_mode
        self.timing = timing if timing is not None else StarTiming()
        self._background = background

    # -- Scenario API ---------------------------------------------------------------
    @property
    def center(self) -> Optional[int]:
        return self._center

    def background_policy(self) -> SenderBehaviourPolicy:
        """The adversary classifying unconstrained ALIVE messages.

        Default: every sender is independently slow for 35% of its rounds, which
        keeps moderate suspicion pressure on every process while the star protects
        the centre.
        """
        if self._background is not None:
            return self._background
        return RandomSlowPolicy(p_slow=0.35, seed=self.seed)

    def build_schedule(self) -> StarSchedule:
        """Return the star schedule realising the assumption."""
        return StarSchedule(
            n=self.n,
            t=self.t,
            center=self._center,
            first_star_round=self.first_star_round,
            max_gap=self.max_gap,
            rotation=self.rotation,
            point_mode=self.point_mode,
            seed=self.seed,
        )

    def build_delay_model(self) -> DelayModel:
        return StarDelayModel(
            schedule=self.build_schedule(),
            policy=self.background_policy(),
            timing=self.timing,
            seed=self.seed,
        )

    def recommended_omega_config(self) -> OmegaConfig:
        # The timing constants assume an ALIVE period of 1.0; the timeout unit is the
        # ALIVE period so a suspicion level of k translates into a k-period timeout.
        return OmegaConfig(alive_period=1.0, timeout_unit=1.0)

    def describe(self) -> str:
        return (
            f"{self.name}(n={self.n}, t={self.t}, center={self._center}, "
            f"RN0={self.first_star_round}, D={self.max_gap}, rotation={self.rotation}, "
            f"points={self.point_mode}, background={self.background_policy().describe()})"
        )


class EventualRotatingStarScenario(_StarScenarioBase):
    """Assumption ``A0``: an eventual rotating t-star present at every round >= RN0."""

    name = "eventual-rotating-star(A0)"

    def __init__(self, n: int, t: int, center: int = 0, seed: int = 0, **kwargs) -> None:
        kwargs.setdefault("max_gap", 1)
        super().__init__(n, t, center=center, seed=seed, **kwargs)
        if self.max_gap != 1:
            raise ValueError("A0 requires a star at every round (max_gap == 1)")


class IntermittentRotatingStarScenario(_StarScenarioBase):
    """Assumption ``A``: the paper's intermittent rotating t-star (gaps <= D)."""

    name = "intermittent-rotating-star(A)"

    def __init__(
        self,
        n: int,
        t: int,
        center: int = 0,
        seed: int = 0,
        max_gap: int = 4,
        **kwargs,
    ) -> None:
        super().__init__(n, t, center=center, seed=seed, max_gap=max_gap, **kwargs)


class EventualTSourceScenario(_StarScenarioBase):
    """Eventual t-source [Aguilera et al. 2004]: fixed ``Q``, timely star links."""

    name = "eventual-t-source"

    def __init__(self, n: int, t: int, center: int = 0, seed: int = 0, **kwargs) -> None:
        kwargs.setdefault("rotation", "fixed")
        kwargs.setdefault("point_mode", TIMELY)
        kwargs.setdefault("max_gap", 1)
        super().__init__(n, t, center=center, seed=seed, **kwargs)


class EventualTMovingSourceScenario(_StarScenarioBase):
    """Eventual t-moving source [Hutle et al. 2006]: rotating ``Q``, timely links."""

    name = "eventual-t-moving-source"

    def __init__(self, n: int, t: int, center: int = 0, seed: int = 0, **kwargs) -> None:
        kwargs.setdefault("rotation", "round_robin")
        kwargs.setdefault("point_mode", TIMELY)
        kwargs.setdefault("max_gap", 1)
        super().__init__(n, t, center=center, seed=seed, **kwargs)


class MessagePatternScenario(_StarScenarioBase):
    """Message-pattern assumption [MMR 2003]: fixed ``Q``, winning responses, no timing.

    The assumption is *time-free*: it holds from the very first round
    (``first_star_round`` defaults to 1) and involves no delay bound — the centre's
    messages are merely always among the first ``n - t`` received by the points.
    A positive *winning_growth* makes the winning messages' delay grow without bound
    round after round, which is allowed by the assumption and is what defeats
    algorithms that only rely on (adaptive) timeouts.
    """

    name = "message-pattern"

    #: Winning/blocker delays of the *harsh* variant: finite, but far beyond any
    #: timeout an algorithm can build up within an experiment horizon.  Exercises the
    #: time-free nature of the assumption (winning says nothing about *when* the
    #: centre's message arrives, only about its rank among the round's messages).
    HARSH_WINNING_DELAY = 2.0e5
    HARSH_BLOCKER_DELAY = 5.0e5

    def __init__(
        self,
        n: int,
        t: int,
        center: int = 0,
        seed: int = 0,
        winning_growth: float = 0.0,
        harsh: bool = False,
        **kwargs,
    ) -> None:
        kwargs.setdefault("rotation", "fixed")
        kwargs.setdefault("point_mode", WINNING)
        kwargs.setdefault("max_gap", 1)
        kwargs.setdefault("first_star_round", 1)
        if harsh and "background" not in kwargs:
            # In the harsh variant every link out of the centre that the assumption
            # does not constrain is made (finitely but) extremely slow: the centre is
            # then only usable through its *winning* messages, which is the essence
            # of the time-free assumption.
            kwargs["background"] = FixedSlowSetPolicy([center])
        if "timing" not in kwargs and (winning_growth or harsh):
            kwargs["timing"] = StarTiming(
                winning_delay=(
                    self.HARSH_WINNING_DELAY if harsh else StarTiming.winning_delay
                ),
                blocker_delay=(
                    self.HARSH_BLOCKER_DELAY if harsh else StarTiming.blocker_delay
                ),
                slow_low=(
                    RotatingPersecutionScenario.HARSH_SLOW_LOW
                    if harsh
                    else StarTiming.slow_low
                ),
                slow_high=(
                    RotatingPersecutionScenario.HARSH_SLOW_HIGH
                    if harsh
                    else StarTiming.slow_high
                ),
                winning_growth=winning_growth,
            )
        self.harsh = harsh
        super().__init__(n, t, center=center, seed=seed, **kwargs)


class StrictTSourceScenario(_StarScenarioBase):
    """Eventual t-source whose timely messages are *not* winning.

    Unconstrained fast messages beat the δ-timely star messages, so an algorithm
    that only exploits winning messages (the query/response baseline) gets no help
    from the star, while timer-based algorithms — and the paper's, which exploits
    both properties — still do.  Used by the coverage-comparison experiment E6.
    """

    name = "strict-eventual-t-source"

    def __init__(self, n: int, t: int, center: int = 0, seed: int = 0, **kwargs) -> None:
        kwargs.setdefault("rotation", "fixed")
        kwargs.setdefault("point_mode", TIMELY)
        kwargs.setdefault("max_gap", 1)
        kwargs.setdefault("timing", StarTiming.timely_not_winning())
        super().__init__(n, t, center=center, seed=seed, **kwargs)


class CombinedMrtScenario(_StarScenarioBase):
    """The combined assumption of [MRT 2006]: fixed ``Q``, each point timely *or* winning."""

    name = "combined-mrt"

    def __init__(self, n: int, t: int, center: int = 0, seed: int = 0, **kwargs) -> None:
        kwargs.setdefault("rotation", "fixed")
        kwargs.setdefault("point_mode", "mixed")
        kwargs.setdefault("max_gap", 1)
        super().__init__(n, t, center=center, seed=seed, **kwargs)


class RotatingPersecutionScenario(_StarScenarioBase):
    """Ablation scenario separating Figure 1 from Figures 2/3.

    The assumption ``A`` holds with bound ``D = max_gap`` (the centre is protected at
    every star round), but outside the star rounds the centre is persecuted exactly
    like every other process: the adversary slows one victim at a time for stretches
    of rounds whose length grows without bound.

    * Under Figure 2/3 the line-``*`` window test freezes the centre's suspicion
      level (every long window contains a star round) while every other process's
      level grows without bound, so the leader stabilises on the centre.
    * Under Figure 1 the centre's level also grows without bound (it is incremented
      at every persecuted non-star round), levels keep leap-frogging and the leader
      never stabilises — demonstrating that the Figure 1 rule is not sufficient
      under ``A``.
    """

    name = "rotating-persecution"

    #: Slow-delay range used by the persecution adversary.  The delays are finite
    #: (as the asynchronous model requires) but far beyond any timeout the
    #: algorithms can build up within an experiment horizon, so a persecuted
    #: sender's ALIVE messages effectively miss every receiving round of its
    #: stretch no matter how adaptive the receiver's timer is.
    HARSH_SLOW_LOW = 2.0e5
    HARSH_SLOW_HIGH = 4.0e5

    def __init__(
        self,
        n: int,
        t: int,
        center: int = 0,
        seed: int = 0,
        max_gap: int = 4,
        initial_stretch: int = 6,
        growth: float = 1.6,
        persecute_center: bool = True,
        **kwargs,
    ) -> None:
        kwargs.setdefault("point_mode", TIMELY)
        if "timing" not in kwargs:
            kwargs["timing"] = StarTiming(
                slow_low=self.HARSH_SLOW_LOW, slow_high=self.HARSH_SLOW_HIGH
            )
        super().__init__(n, t, center=center, seed=seed, max_gap=max_gap, **kwargs)
        victims = list(range(n)) if persecute_center else [
            pid for pid in range(n) if pid != center
        ]
        self.persecute_center = persecute_center
        self._policy = EscalatingPersecutionPolicy(
            victims=victims, initial_stretch=initial_stretch, growth=growth
        )

    def background_policy(self) -> SenderBehaviourPolicy:
        return self._policy


class AsynchronousAdversaryScenario(Scenario):
    """No behavioural assumption at all (negative control).

    Every process is persecuted for ever-growing stretches and no star protects
    anyone, so no algorithm can guarantee a stable leader; runs under this scenario
    are used to check that (i) the algorithms never elect *only* crashed processes
    for ever once a correct process exists with a bounded level — nothing is claimed
    — and (ii) the consensus layer never violates safety (indulgence, E8).
    """

    name = "asynchronous-adversary"

    def __init__(
        self,
        n: int,
        t: int,
        seed: int = 0,
        initial_stretch: int = 6,
        growth: float = 1.6,
        timing: Optional[StarTiming] = None,
    ) -> None:
        super().__init__(n, t)
        self.seed = seed
        if timing is None:
            timing = StarTiming(
                slow_low=RotatingPersecutionScenario.HARSH_SLOW_LOW,
                slow_high=RotatingPersecutionScenario.HARSH_SLOW_HIGH,
            )
        self.timing = timing
        self._policy = EscalatingPersecutionPolicy(
            victims=list(range(n)), initial_stretch=initial_stretch, growth=growth
        )

    def build_delay_model(self) -> DelayModel:
        return StarDelayModel(
            schedule=None,
            policy=self._policy,
            timing=self.timing,
            seed=self.seed,
        )

    def guarantees_eventual_leader(self) -> bool:
        return False

    def recommended_omega_config(self) -> OmegaConfig:
        return OmegaConfig(alive_period=1.0, timeout_unit=1.0)

    def describe(self) -> str:
        return f"{self.name}(n={self.n}, t={self.t}, policy={self._policy.describe()})"


class ConstantDelayScenario(Scenario):
    """Uniform constant delays — the fuzzer's controllable baseline.

    Constant symmetric delays make every process an (intermittent) star
    centre, so leadership is well-defined and the scenario has no protected
    process: every fault plan is assumption-admissible, which is exactly what
    a fuzzer wants — the *plans* are the experiment, not the delay model.
    """

    name = "constant-delay"

    def __init__(self, n: int, t: int, delay: float = 0.5) -> None:
        super().__init__(n, t)
        if delay <= 0:
            raise ValueError(f"delay must be positive, got {delay}")
        self.delay = delay

    def build_delay_model(self) -> ConstantDelay:
        return ConstantDelay(self.delay)

    def recommended_omega_config(self) -> OmegaConfig:
        # ALIVE period comfortably above the delay keeps rounds closing.
        return OmegaConfig(alive_period=max(1.0, 2.0 * self.delay))


def special_case_scenarios(
    n: int, t: int, center: int = 0, seed: int = 0
) -> Sequence[Scenario]:
    """Return one scenario per special case listed in Section 3 of the paper.

    Used by experiment E4 ("the intermittent rotating t-star generalises previously
    proposed assumptions"): the same Figure 3 algorithm must elect a leader under
    every one of them.
    """
    validate_process_count(n, t)
    return (
        EventualTSourceScenario(n, t, center=center, seed=seed),
        EventualTMovingSourceScenario(n, t, center=center, seed=seed),
        MessagePatternScenario(n, t, center=center, seed=seed),
        CombinedMrtScenario(n, t, center=center, seed=seed),
        EventualRotatingStarScenario(n, t, center=center, seed=seed),
        IntermittentRotatingStarScenario(n, t, center=center, seed=seed),
    )

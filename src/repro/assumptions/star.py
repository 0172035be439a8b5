"""Machinery enforcing the intermittent rotating t-star inside the simulator.

The assumption ``A`` constrains only the ``ALIVE(rn)`` messages sent by the star
centre ``p`` to the points ``Q(rn)`` of the star, and only for the round numbers
``rn`` of the sequence ``S``.  Everything else — ALIVE messages of other rounds,
ALIVE messages between other processes, SUSPICION messages — is unconstrained (any
finite delay).  The classes in this module mirror that split:

* :class:`StarSchedule` decides, deterministically from a seed, which rounds belong
  to ``S``, which ``t`` processes form ``Q(rn)``, whether each point satisfies the
  δ-timely or the winning property for that round, and which ``t`` *blocker* senders
  realise the winning property (their ``ALIVE(rn)`` messages to the point are delayed
  behind the centre's, so the centre's message is necessarily among the first
  ``n - t`` the point receives).
* :class:`SenderBehaviourPolicy` classifies every unconstrained ``ALIVE`` message as
  *fast* or *slow*: this is the adversary's lever.  The provided policies range from
  benign (:class:`AlwaysFastPolicy`) to the escalating-persecution adversary used in
  the ablation experiments (:class:`EscalatingPersecutionPolicy`).
* :class:`StarDelayModel` combines a schedule, a policy and a :class:`StarTiming`
  into a :class:`~repro.simulation.delays.DelayModel` usable by the network.

Timing constants (see :class:`StarTiming`) are chosen relative to the default ALIVE
period ``beta = 1.0`` so that the enforcement is airtight:

* timely star messages arrive within ``delta = timely_high < fast_low``, hence before
  any unconstrained message of the same round and before the round can possibly be
  closed by its destination;
* winning star messages arrive after ``winning_delay`` (far beyond any timeout) but
  before the ``blocker_delay`` of the ``t`` blockers, so the destination cannot
  gather ``n - t`` ALIVE messages of that round before the centre's arrives.
"""

from __future__ import annotations

import abc
import dataclasses
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.simulation.delays import DelayModel
from repro.util.rng import RandomSource
from repro.util.validation import validate_process_count

#: Point property constants.
TIMELY = "timely"
WINNING = "winning"

#: Message tags subject to the star/background treatment.  Baseline algorithms use
#: HEARTBEAT / RESPONSE messages in the role the paper's ALIVE messages play; giving
#: them the same treatment lets the comparison experiments run every algorithm under
#: an analogous constraint.
DEFAULT_CONSTRAINED_TAGS = frozenset({"ALIVE", "HEARTBEAT", "RESPONSE"})


@dataclasses.dataclass
class StarTiming:
    """Delay constants used by :class:`StarDelayModel` (virtual time units).

    The defaults assume the algorithm's ALIVE period is 1.0 (the
    :class:`~repro.core.config.OmegaConfig` default).
    """

    #: δ-timely star messages: uniform in [timely_low, timely_high].
    timely_low: float = 0.05
    timely_high: float = 0.45
    #: Unconstrained messages classified *fast*: uniform in [fast_low, fast_high].
    fast_low: float = 2.0
    fast_high: float = 3.0
    #: Unconstrained messages classified *slow*: uniform in [slow_low, slow_high].
    slow_low: float = 14.0
    slow_high: float = 18.0
    #: Per-round growth of slow delays: a slow ``ALIVE(rn)`` message takes an extra
    #: ``slow_growth * rn``.  A positive value makes the background delays grow
    #: without bound (perfectly legal in an asynchronous system) and is what defeats
    #: algorithms whose only weapon is an adaptive timeout.
    slow_growth: float = 0.0
    #: Winning star messages: winning_delay (+ winning_growth * rn).
    winning_delay: float = 24.0
    #: Per-round growth of winning-message delays (the message-pattern assumption is
    #: time-free, so arbitrary growth must not break algorithms that exploit it).
    winning_growth: float = 0.0
    #: Blocker messages for a winning point: blocker_delay, scaled with the winning
    #: delay so blockers always arrive after the centre's message.
    blocker_delay: float = 60.0
    #: Non-constrained tags (SUSPICION, consensus traffic, ...): uniform range.
    control_low: float = 0.05
    control_high: float = 0.40

    def __post_init__(self) -> None:
        pairs = [
            ("timely", self.timely_low, self.timely_high),
            ("fast", self.fast_low, self.fast_high),
            ("slow", self.slow_low, self.slow_high),
            ("control", self.control_low, self.control_high),
        ]
        for name, low, high in pairs:
            if low < 0 or high < low:
                raise ValueError(f"invalid {name} delay range [{low}, {high}]")
        if self.slow_growth < 0 or self.winning_growth < 0:
            raise ValueError("delay growth rates must be non-negative")
        if not self.timely_high < self.slow_low:
            raise ValueError("timely_high must be < slow_low")
        if not self.fast_high < self.slow_low:
            raise ValueError("fast_high must be < slow_low")
        if not self.winning_delay > self.fast_high:
            raise ValueError("winning_delay must exceed fast_high")
        if not self.blocker_delay > self.winning_delay:
            raise ValueError("blocker_delay must exceed winning_delay")

    @property
    def delta(self) -> float:
        """The timeliness bound δ realised by this timing."""
        return self.timely_high

    @property
    def timely_beats_fast(self) -> bool:
        """True when timely star messages necessarily arrive before unconstrained
        messages of the same round (and are therefore also winning)."""
        return self.timely_high < self.fast_low

    @classmethod
    def timely_not_winning(cls) -> "StarTiming":
        """Timing in which timely star messages are *not* among the first ``n - t``.

        Unconstrained fast messages are made faster than the δ-timely ones, so a
        δ-timely message from the centre typically arrives *after* ``n - t`` other
        messages of the same round.  This separates the timer-based assumptions from
        the message-pattern assumption: algorithms that only exploit winning messages
        (the MMR baseline) cannot benefit from such a star, while timer-based
        algorithms (and the paper's, which exploits both) can.
        """
        return cls(
            timely_low=1.0,
            timely_high=1.6,
            fast_low=0.05,
            fast_high=0.6,
            slow_low=14.0,
            slow_high=18.0,
            slow_growth=0.25,
        )

    def winning_delay_for(self, rn: int) -> float:
        """Winning-message delay for round *rn*."""
        return self.winning_delay + self.winning_growth * rn

    def blocker_delay_for(self, rn: int) -> float:
        """Blocker delay for round *rn* (always beyond the winning delay)."""
        base = max(self.blocker_delay, 2.5 * self.winning_delay_for(rn))
        return base + self.winning_growth * rn

    def slow_delay_bounds(self, rn: int) -> Tuple[float, float]:
        """(low, high) slow-delay bounds for round *rn*."""
        extra = self.slow_growth * rn
        return (self.slow_low + extra, self.slow_high + extra)


class StarSchedule:
    """Deterministic description of the intermittent rotating t-star.

    Parameters
    ----------
    n, t:
        System parameters.
    center:
        Identity of the star centre ``p``.
    first_star_round:
        The paper's ``RN0``: no constraint is enforced for rounds below it.
    max_gap:
        The paper's ``D``: consecutive star rounds are at most ``max_gap`` apart.
        ``1`` makes every round (>= ``first_star_round``) a star round, i.e. the
        assumption ``A0``.
    rotation:
        ``"fixed"`` — ``Q(rn)`` is the same set for every star round (t-source /
        message-pattern special cases); ``"round_robin"`` — the points rotate
        deterministically; ``"random"`` — sampled per star round from the seed.
    point_mode:
        ``"timely"`` | ``"winning"`` | ``"mixed"`` — which of the two properties of
        assumption A2 each point satisfies (``"mixed"`` draws per point per round).
    seed:
        Seed for all random choices of the schedule.
    gap_function:
        Optional callable ``k -> extra gap`` added on top of the randomly drawn gap
        for the k-th star round; used by the ``A_{f,g}`` scenarios where the distance
        between stars grows without bound.
    """

    def __init__(
        self,
        n: int,
        t: int,
        center: int,
        first_star_round: int = 1,
        max_gap: int = 1,
        rotation: str = "round_robin",
        point_mode: str = "mixed",
        seed: int = 0,
        gap_function=None,
    ) -> None:
        validate_process_count(n, t)
        if not 0 <= center < n:
            raise ValueError(f"center must be in [0, {n}), got {center}")
        if first_star_round < 1:
            raise ValueError(f"first_star_round must be >= 1, got {first_star_round}")
        if max_gap < 1:
            raise ValueError(f"max_gap must be >= 1, got {max_gap}")
        if rotation not in ("fixed", "round_robin", "random"):
            raise ValueError(f"unknown rotation {rotation!r}")
        if point_mode not in (TIMELY, WINNING, "mixed"):
            raise ValueError(f"unknown point_mode {point_mode!r}")
        if point_mode in (WINNING, "mixed") and n < t + 2:
            raise ValueError(
                "winning points need at least t blocker senders besides the centre "
                f"and the point itself; n={n} is too small for t={t}"
            )
        self.n = n
        self.t = t
        self.center = center
        self.first_star_round = first_star_round
        self.max_gap = max_gap
        self.rotation = rotation
        self.point_mode = point_mode
        self.gap_function = gap_function
        self._rng = RandomSource(seed, label="star-schedule")
        self._others: List[int] = [pid for pid in range(n) if pid != center]
        #: point -> the processes that may block it: neither centre nor point.
        self._candidates = [[pid for pid in self._others if pid != point] for point in range(n)]

        # The sequence S, generated lazily and in order, one int64 per star
        # round: its gaps are drawn from one sequential stream, so a round
        # cannot be re-derived out of order.  Everything else about a round is
        # a pure function of (seed, rn, point) and is recomputed on demand;
        # points, "mixed" properties and blockers keep a one-round memo,
        # because a broadcast asks about the same round once per destination.
        self._star_rounds = array("q", [first_star_round])
        #: (rn, Q(rn)) of the latest ``points`` call; round 0 is never a star round.
        self._points_memo: Tuple[int, FrozenSet[int]] = (0, frozenset())
        #: point -> (rn, property) of its latest ``"mixed"`` draw.
        self._property_memo: Dict[int, Tuple[int, str]] = {}
        #: point -> (rn, blockers) of its latest ``blockers`` call.
        self._blockers_memo: Dict[int, Tuple[int, FrozenSet[int]]] = {}

    # ------------------------------------------------------------------ S sequence --
    def _extend_star_rounds(self, up_to: int) -> None:
        """Generate the sequence ``S`` of star rounds up to round *up_to*."""
        rounds = self._star_rounds
        while rounds[-1] < up_to:
            if self.max_gap == 1:
                gap = 1
            else:
                gap = self._rng.randint(1, self.max_gap)
            if self.gap_function is not None:
                extra = int(self.gap_function(len(rounds)))
                if extra < 0:
                    raise ValueError("gap_function must be non-negative")
                gap += extra
            rounds.append(rounds[-1] + gap)

    def is_star_round(self, rn: int) -> bool:
        """Return True when *rn* belongs to the sequence ``S``."""
        if rn < self.first_star_round:
            return False
        rounds = self._star_rounds
        if rounds[-1] < rn:
            self._extend_star_rounds(rn)
        return rounds[bisect_left(rounds, rn)] == rn

    def star_rounds_up_to(self, rn: int) -> List[int]:
        """Return the star rounds <= *rn* (mainly for tests and reports)."""
        self._extend_star_rounds(rn)
        rounds = self._star_rounds
        return rounds[: bisect_right(rounds, rn)].tolist()

    # ------------------------------------------------------------------ Q(rn) --
    def points(self, rn: int) -> FrozenSet[int]:
        """Return ``Q(rn)``, the ``t`` points of the star for star round *rn*
        (empty for any other round)."""
        memo = self._points_memo
        if memo[0] == rn:
            return memo[1]
        if not self.is_star_round(rn):
            result: FrozenSet[int] = frozenset()
        elif self.rotation == "fixed":
            result = frozenset(self._others[: self.t])
        elif self.rotation == "round_robin":
            m = len(self._others)
            start = (rn * self.t) % m
            result = frozenset(self._others[(start + i) % m] for i in range(self.t))
        else:  # random
            result = frozenset(self._rng.child_sample(self._others, self.t, "points", rn))
        self._points_memo = (rn, result)
        return result

    def point_property(self, rn: int, point: int) -> Optional[str]:
        """Return ``"timely"`` / ``"winning"`` for a point of star round *rn*.

        ``None`` when (*rn*, *point*) is not part of the star.
        """
        if point not in self.points(rn):
            return None
        if self.point_mode != "mixed":
            return self.point_mode
        last = self._property_memo.get(point)
        if last is not None and last[0] == rn:
            return last[1]
        value = WINNING if self._rng.child_random("property", rn, point) < 0.5 else TIMELY
        self._property_memo[point] = (rn, value)
        return value

    def blockers(self, rn: int, point: int) -> FrozenSet[int]:
        """Return the ``t`` blocker senders realising a winning point.

        Their ``ALIVE(rn)`` messages to *point* are delayed behind the centre's so
        the centre's message is among the first ``n - t`` received by the point.
        """
        last = self._blockers_memo.get(point)
        if last is not None and last[0] == rn:
            return last[1]
        candidates = self._candidates[point]
        # Deterministic rotation of blockers so no fixed set of processes is starved
        # round after round.
        start = (rn + point) % len(candidates)
        rotated = candidates[start:] + candidates[:start]
        result = frozenset(rotated[: self.t])
        self._blockers_memo[point] = (rn, result)
        return result

    def describe(self) -> str:
        """One-line description of the schedule."""
        return (
            f"star(center={self.center}, RN0={self.first_star_round}, D={self.max_gap}, "
            f"rotation={self.rotation}, points={self.point_mode})"
        )


class SenderBehaviourPolicy(abc.ABC):
    """Adversarial classification of unconstrained ALIVE messages.

    The policy decides, per ``(sender, round)``, whether the sender behaves *slow*
    for that round (all of its ALIVE(rn) messages take a slow delay) or *fast*.
    Per-(sender, round) rather than per-message classification models a sender-side
    slow period (GC pause, overloaded host) and is what produces suspicion quorums:
    when a sender is slow for a round, every receiver misses it simultaneously.
    """

    @abc.abstractmethod
    def is_slow(self, sender: int, rn: int) -> bool:
        """Return True when *sender* behaves slow for round *rn*."""

    def describe(self) -> str:
        return type(self).__name__


class AlwaysFastPolicy(SenderBehaviourPolicy):
    """Benign background: every unconstrained message is fast."""

    def is_slow(self, sender: int, rn: int) -> bool:
        return False


class FixedSlowSetPolicy(SenderBehaviourPolicy):
    """A fixed set of senders is slow in every round (permanently slow hosts)."""

    def __init__(self, slow_senders: Sequence[int]) -> None:
        self.slow_senders = frozenset(slow_senders)

    def is_slow(self, sender: int, rn: int) -> bool:
        return sender in self.slow_senders

    def describe(self) -> str:
        return f"fixed-slow({sorted(self.slow_senders)})"


class RandomSlowPolicy(SenderBehaviourPolicy):
    """Each (sender, round) is independently slow with probability *p_slow*."""

    def __init__(self, p_slow: float, seed: int, exempt: Sequence[int] = ()) -> None:
        if not 0.0 <= p_slow <= 1.0:
            raise ValueError(f"p_slow must be in [0, 1], got {p_slow}")
        self.p_slow = p_slow
        self.exempt = frozenset(exempt)
        # A per-key draw reads only ``seed`` and ``label``: one parent serves every pair.
        self._parent = RandomSource(seed, label="slow")
        #: sender -> (rn, is_slow) of its latest classification.  The draw is a
        #: pure function of ``(seed, sender, rn)``, so a memo only has to
        #: spare a broadcast's ``n - 1`` destinations the re-derivation — one
        #: entry per sender, however long the run.
        self._last: Dict[int, Tuple[int, bool]] = {}

    def is_slow(self, sender: int, rn: int) -> bool:
        if sender in self.exempt:
            return False
        last = self._last.get(sender)
        if last is not None and last[0] == rn:
            return last[1]
        slow = self._parent.child_random(sender, rn) < self.p_slow
        self._last[sender] = (rn, slow)
        return slow

    def describe(self) -> str:
        return f"random-slow(p={self.p_slow}, exempt={sorted(self.exempt)})"


class EscalatingPersecutionPolicy(SenderBehaviourPolicy):
    """Persecute processes one at a time, for stretches that grow without bound.

    The round axis is divided into consecutive *stretches*; during a stretch exactly
    one victim is slow in every round of the stretch.  Victims are taken round-robin
    from *victims*; the stretch length starts at *initial_stretch* rounds and is
    multiplied by *growth* after each full rotation over the victims.

    Growing stretches defeat the line-``*`` window test for every victim — each
    victim is eventually suspected over arbitrarily long consecutive round windows —
    so, under Figures 2/3, the suspicion level of every victim grows without bound
    while a process protected by a star keeps a bounded level.  Including the star
    centre among the victims (and protecting it only at star rounds) is how the
    ablation experiments show that the Figure 1 rule is *not* sufficient under the
    intermittent assumption ``A``.
    """

    def __init__(
        self,
        victims: Sequence[int],
        initial_stretch: int = 4,
        growth: float = 1.5,
        max_stretch: int = 4096,
    ) -> None:
        if not victims:
            raise ValueError("EscalatingPersecutionPolicy needs at least one victim")
        if initial_stretch < 1:
            raise ValueError("initial_stretch must be >= 1")
        if growth < 1.0:
            raise ValueError("growth must be >= 1.0")
        self.victims = list(dict.fromkeys(victims))
        self.initial_stretch = initial_stretch
        self.growth = growth
        self.max_stretch = max_stretch
        # Precomputed stretch boundaries, extended lazily:
        # list of (first_round_inclusive, last_round_inclusive, victim).
        self._stretches: List[Tuple[int, int, int]] = []
        self._covered_until = 0

    def _extend(self, rn: int) -> None:
        while self._covered_until < rn:
            cycle_index = len(self._stretches) // len(self.victims)
            stretch = min(
                int(round(self.initial_stretch * (self.growth**cycle_index))),
                self.max_stretch,
            )
            stretch = max(1, stretch)
            victim = self.victims[len(self._stretches) % len(self.victims)]
            first = self._covered_until + 1
            last = first + stretch - 1
            self._stretches.append((first, last, victim))
            self._covered_until = last

    def victim_for_round(self, rn: int) -> int:
        """Return the process persecuted during round *rn*."""
        if rn < 1:
            raise ValueError("rounds are numbered from 1")
        self._extend(rn)
        for first, last, victim in self._stretches:
            if first <= rn <= last:
                return victim
        raise AssertionError("unreachable: stretches cover every round")

    def is_slow(self, sender: int, rn: int) -> bool:
        if rn < 1:
            return False
        return self.victim_for_round(rn) == sender

    def describe(self) -> str:
        return (
            f"escalating-persecution(victims={self.victims}, "
            f"stretch0={self.initial_stretch}, growth={self.growth})"
        )


class StarDelayModel(DelayModel):
    """Delay model combining star enforcement and background adversary.

    Decision order for a message with a constrained tag and round number ``rn``:

    1. ``sender == center`` and ``rn`` is a star round and ``dest`` is a point:
       the star property of that point applies (timely or winning delay).
    2. ``dest`` is a *winning* point of star round ``rn`` and ``sender`` is one of
       its blockers: the blocker delay applies.
    3. otherwise the background policy classifies ``(sender, rn)`` as fast or slow.

    Messages with unconstrained tags (SUSPICION, consensus traffic, ...) or without a
    round number always take the control delay.
    """

    def __init__(
        self,
        schedule: Optional[StarSchedule],
        policy: SenderBehaviourPolicy,
        timing: StarTiming,
        seed: int,
        constrained_tags: FrozenSet[str] = DEFAULT_CONSTRAINED_TAGS,
    ) -> None:
        self.schedule = schedule
        self.policy = policy
        self.timing = timing
        self.constrained_tags = frozenset(constrained_tags)
        # One RNG stream per delay category.  Draws happen in simulation event order,
        # which is itself deterministic for a given seed, so runs are reproducible.
        root = RandomSource(seed, label="star-delays")
        self._control_rng = root.child("control")
        self._fast_rng = root.child("fast")
        self._slow_rng = root.child("slow")
        self._timely_rng = root.child("timely")

    # ------------------------------------------------------------------ helpers --
    @staticmethod
    def _uniform(rng: RandomSource, low: float, high: float) -> float:
        # Degenerate bounds return ``low`` without consuming a draw.
        if high <= low:
            return low
        return rng.uniform(low, high)

    def _control_delay(self) -> float:
        return self._uniform(
            self._control_rng, self.timing.control_low, self.timing.control_high
        )

    def _background_delay(self, sender: int, rn: int) -> float:
        if self.policy.is_slow(sender, rn):
            low, high = self.timing.slow_delay_bounds(rn)
            return self._uniform(self._slow_rng, low, high)
        return self._uniform(
            self._fast_rng, self.timing.fast_low, self.timing.fast_high
        )

    def timely_delay(self, rn: int) -> Tuple[float, float]:
        """Return the (low, high) range for timely star messages of round *rn*.

        Overridden by the ``A_{f,g}`` growing-delay model.
        """
        return (self.timing.timely_low, self.timing.timely_high)

    # ------------------------------------------------------------------ DelayModel --
    def delay(
        self, sender: int, dest: int, tag: str, round_number: Optional[int]
    ) -> float:
        if tag not in self.constrained_tags or round_number is None:
            return self._control_delay()
        rn = round_number
        schedule = self.schedule
        # Outside the star rounds ``points`` is empty.
        points = schedule.points(rn) if schedule is not None else ()
        if points:
            if sender == schedule.center and dest in points:
                prop = schedule.point_property(rn, dest)
                if prop == WINNING:
                    return self.timing.winning_delay_for(rn)
                low, high = self.timely_delay(rn)
                return self._uniform(self._timely_rng, low, high)
            if (
                dest in points
                and schedule.point_property(rn, dest) == WINNING
                and sender in schedule.blockers(rn, dest)
            ):
                return self.timing.blocker_delay_for(rn)
        return self._background_delay(sender, rn)

    def describe(self) -> str:
        star = self.schedule.describe() if self.schedule is not None else "no-star"
        return f"StarDelayModel({star}, policy={self.policy.describe()})"

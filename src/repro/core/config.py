"""Configuration of the paper's Omega algorithms.

The paper leaves several quantities abstract (the period ``beta`` between two ALIVE
broadcasts, the unit in which timers are expressed, the threshold ``n - t`` that
footnote 5 allows to generalise to any lower bound ``alpha`` on the number of correct
processes).  :class:`OmegaConfig` gathers them with faithful defaults so an algorithm
instance is fully described by ``(n, t, config)``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.util.validation import require_non_negative, require_positive

#: Type of the ``f`` function of Section 7 (round number -> extra window length).
WindowFunction = Callable[[int], int]

#: Type of the ``g`` function of Section 7 (round number -> extra timeout duration).
TimeoutFunction = Callable[[int], float]


@dataclasses.dataclass
class OmegaConfig:
    """Parameters of the Figure 1/2/3 and ``A_{f,g}`` algorithms.

    Attributes
    ----------
    alive_period:
        The bound ``beta`` between two consecutive ALIVE broadcasts by the same
        process (task T1 "repeat regularly").  Each process broadcasts exactly every
        ``alive_period`` local time units (plus optional per-process jitter).
    alive_jitter:
        Maximal random extra delay added to each ALIVE period, drawn uniformly from
        ``[0, alive_jitter]``.  The paper only requires the period to be *bounded*, so
        jitter is allowed; it defaults to 0 for determinism.
    timeout_unit:
        Multiplier converting the (integer) timer value ``max(susp_level)`` prescribed
        by line 11 into time units.  This is a pure change of time scale.
    initial_timeout:
        Value of the very first timer (the paper initialises the timer before any
        suspicion level is positive).  Defaults to 0, i.e. the first receiving round
        is gated only by the ``n - t`` reception condition.
    alpha:
        Reception/suspicion threshold.  ``None`` (the default) means the paper's
        ``n - t``.  Footnote 5: any lower bound on the number of correct processes is
        sound.
    f:
        The Section-7 ``f`` function extending the suspicion window; ``None`` for the
        plain Figure 2/3 algorithms (equivalent to ``f(rn) == 0``).
    g:
        The Section-7 ``g`` function extending the timeout; ``None`` for the plain
        algorithms (equivalent to ``g(rn) == 0``).
    history_horizon:
        Number of past receiving rounds for which ``rec_from`` / ``suspicions``
        entries are retained, *in addition to* the window required by the line-``*``
        test.  ``None`` disables garbage collection (faithful to the paper's
        pseudo-code, which keeps every round); the default keeps memory bounded in
        long benchmark runs without affecting any decision of the algorithm.
    round_resync_gap:
        Crash-recovery / partition extension (NOT part of the paper, whose model
        is crash-stop with reliable links): when set, the process keeps its two
        round numbers on the clock its peers share.

        *Rejoin.*  An ALIVE whose round exceeds the receiver's own **sending**
        round by more than this gap moves the sending round up to it.  Peers
        count no ALIVE below their receiving round, so a recovered process —
        a fresh incarnation numbers its ALIVEs from 1 — would otherwise be
        mute to the detector for as long as its peers had been up; the send
        rounds it skips are exactly the ones it never sent while down.

        *Resync.*  The line-8 round-closing rule waits for ``alpha`` ALIVE
        messages of the *exact* current receiving round; messages lost to a
        partition, or never sent because a peer was down, can therefore stall
        the receiving round forever — freezing suspicion counting and, with
        it, leadership.  The process fast-forwards its receiving round once
        **all three** hold: an observed ALIVE round exceeds the receiving
        round by more than this gap, the round timer has expired, and the
        current round is still short of its ``alpha`` receptions — i.e. the
        round is demonstrably stuck, not merely lagging.  (A receiving round
        that lags the sending rounds is the *normal* regime whenever the
        line-11 timeout exceeds the ALIVE period, and must not be skipped:
        every skipped round loses its SUSPICION broadcast, and with exactly
        ``alpha`` processes alive one missing broadcast starves the line-``*``
        window, which needs consecutive quorum rounds.)  For the same reason
        the jump lands on the first later round that already holds ``alpha``
        receptions, and on the observed round only when there is none: the
        rounds skipped are the ones that could never close.  No suspicions are
        broadcast for them — conservative: skipping can only *under*-suspect,
        never wrongly accuse.

        ``None`` (the default) disables both and keeps the paper's exact
        semantics; fault plans with partitions or recoveries enable it through
        :meth:`~repro.simulation.faults.FaultPlan.needs_round_resync`, and a
        :class:`~repro.service.sharding.ShardedService` switches it on
        automatically for such plans (or when an adaptive adversary is
        installed).
    pace_alive:
        Service extension (NOT part of the paper).  When true, task T1
        waits ``max(alive_period, timeout_unit * max(susp_level))`` between
        two ALIVE broadcasts instead of ``alive_period``: a receiving round
        takes at least the line-11 timeout to close, so an unpaced sender
        outruns its receivers as soon as that timeout exceeds ``alive_period``
        and the receiving rounds fall behind the sending rounds by a constant
        fraction of the uptime — a crashed leader's buffered ALIVEs then keep
        it unsuspected until the backlog is consumed.  Paced, the lag only
        ratchets up to the longest ``alpha``-th arrival seen.  T1 requires a
        *bounded* period, so this is sound only where timeouts are bounded:
        Figure 3 (Theorem 4), not Figures 1-2, whose level for a crashed
        process grows for ever.  ``False`` (the default) is the paper's T1; a
        :class:`~repro.service.sharding.ShardedService` turns it on when its
        oracle is a :class:`~repro.core.figure3.Figure3Omega`.
    quiet_rounds:
        Service extension (NOT part of the paper).  When true, a receiving
        round that closes with an empty suspect set broadcasts no SUSPICION;
        everything else about the round close (round number, line-11 timer,
        garbage collection) is unchanged and a non-empty set is broadcast
        exactly as in the paper.  Lines 13-18 — and the line-``*``/``**``
        guards of Figures 2-3 and ``A_{f,g}`` — only ever act on the members
        of ``suspects``, so an empty SUSPICION is a no-op at every receiver
        in every variant: no process's state can tell whether it was sent.
        ``False`` (the default) is the paper's line 10, which broadcasts at
        the end of *every* round and is what the Θ(n²)-per-period cost table
        of experiment E9 counts; a
        :class:`~repro.service.sharding.ShardedService` turns it on for every
        oracle class.
    """

    alive_period: float = 1.0
    alive_jitter: float = 0.0
    timeout_unit: float = 1.0
    initial_timeout: float = 0.0
    alpha: Optional[int] = None
    f: Optional[WindowFunction] = None
    g: Optional[TimeoutFunction] = None
    history_horizon: Optional[int] = 512
    round_resync_gap: Optional[int] = None
    pace_alive: bool = False
    quiet_rounds: bool = False

    def __post_init__(self) -> None:
        require_positive(self.alive_period, "alive_period")
        require_non_negative(self.alive_jitter, "alive_jitter")
        require_positive(self.timeout_unit, "timeout_unit")
        require_non_negative(self.initial_timeout, "initial_timeout")
        if self.alpha is not None and self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.history_horizon is not None and self.history_horizon < 1:
            raise ValueError(
                f"history_horizon must be >= 1 or None, got {self.history_horizon}"
            )
        if self.round_resync_gap is not None and self.round_resync_gap < 1:
            raise ValueError(
                f"round_resync_gap must be >= 1 or None, got {self.round_resync_gap}"
            )

    def effective_alpha(self, n: int, t: int) -> int:
        """Return the reception/suspicion threshold used by the algorithm.

        The paper uses ``n - t``; an explicit :attr:`alpha` overrides it (footnote 5).
        The threshold can never exceed ``n`` nor drop below 1.
        """
        alpha = self.alpha if self.alpha is not None else n - t
        if alpha < 1 or alpha > n:
            raise ValueError(
                f"effective alpha {alpha} outside [1, {n}] for n={n}, t={t}"
            )
        return alpha

    def window_extension(self, rn: int) -> int:
        """Return ``f(rn)`` (0 when no ``f`` was configured)."""
        if self.f is None:
            return 0
        value = int(self.f(rn))
        if value < 0:
            raise ValueError(f"f({rn}) returned {value}; f must be non-negative")
        return value

    def timeout_extension(self, rn: int) -> float:
        """Return ``g(rn)`` (0.0 when no ``g`` was configured)."""
        if self.g is None:
            return 0.0
        value = float(self.g(rn))
        if value < 0:
            raise ValueError(f"g({rn}) returned {value}; g must be non-negative")
        return value

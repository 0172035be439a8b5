"""Common machinery of the paper's Omega algorithms (Figures 1, 2 and 3).

The three algorithms share all of their structure; they differ only in the condition
under which a suspicion level may be increased (lines 16, ``*`` and ``**``) and in
the value to which the round timer is reset (line 11, extended by ``g`` in Section
7).  :class:`RotatingStarOmegaBase` implements the shared structure and exposes the
two variation points as overridable methods:

* :meth:`_may_increase_level` — the guard of line 17;
* :meth:`_timeout_value` — the value used at line 11.

Mapping from the paper's pseudo-code to this implementation
-----------------------------------------------------------

==============  ================================================================
Paper           Implementation
==============  ================================================================
task T1         the ``"alive"`` periodic timer (:meth:`_on_alive_timer`)
lines 4-7       :meth:`_on_alive_message`
lines 8-12      :meth:`_on_round_timer` + :meth:`_try_finish_round`
lines 13-18     :meth:`_on_suspicion_message`
lines 19-21     :meth:`leader`
``s_rn_i``      :attr:`sending_round`
``r_rn_i``      :attr:`receiving_round`
``susp_level``  :attr:`susp_level` (:class:`~repro.core.state.SuspicionLevels`)
``rec_from``,
``suspicions``  :attr:`records` (:class:`~repro.core.state.RoundRecords`)
==============  ================================================================
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.core.config import OmegaConfig
from repro.core.interfaces import Environment, LeaderOracle, Message, Process, TimerHandle
from repro.core.messages import Alive, Suspicion
from repro.core.state import RoundRecords, SuspicionLevels
from repro.util.validation import validate_process_count

#: Timer names used by the algorithms (exported for the composition layer).
ALIVE_TIMER = "alive"
ROUND_TIMER = "round"


class RotatingStarOmegaBase(Process, LeaderOracle):
    """Shared implementation of the Figure 1/2/3 leader-election algorithms.

    Parameters
    ----------
    pid:
        Identifier of the process running this instance.
    n:
        Total number of processes.
    t:
        Upper bound on the number of processes that may crash.
    config:
        Timing and threshold configuration (see :class:`~repro.core.config.OmegaConfig`).

    Notes
    -----
    The instance is runtime-agnostic: it only talks to an
    :class:`~repro.core.interfaces.Environment`.  All of its externally observable
    state (current leader, suspicion levels, round numbers, timeout values) is
    exposed through read-only properties so the analysis layer can audit the
    boundedness claims without reaching into private attributes.
    """

    #: Human-readable name of the algorithm variant (overridden by subclasses).
    variant_name = "rotating-star-base"

    def __init__(self, pid: int, n: int, t: int, config: Optional[OmegaConfig] = None) -> None:
        validate_process_count(n, t)
        if not 0 <= pid < n:
            raise ValueError(f"pid must be in [0, {n}), got {pid}")
        self.pid = pid
        self.n = n
        self.t = t
        self.config = config if config is not None else OmegaConfig()
        self.alpha = self.config.effective_alpha(n, t)

        process_ids = list(range(n))
        self.susp_level = SuspicionLevels(process_ids)
        self.records = RoundRecords(owner=pid)
        self.sending_round = 0
        self.receiving_round = 1
        self._round_timer: Optional[TimerHandle] = None
        self._round_timer_expired = False
        self._started = False

        # -- instrumentation (read by repro.analysis) ---------------------------------
        #: History of (time, timeout_value) pairs, one per line-11 reset.
        self.timeout_history: List[tuple] = []
        #: History of (time, leader) pairs, recorded at every leader change.
        self.leader_history: List[tuple] = []
        #: Counter registry (see :attr:`Process.counters`); a stack hosting this
        #: oracle replaces it with the process-wide one.
        self.counters: Dict[str, int] = Counter()

    # ------------------------------------------------------------------ oracle --
    def leader(self) -> int:
        """Return the currently trusted leader (lines 19-21).

        The elected process is the one with the lexicographically smallest
        ``(susp_level, id)`` pair.
        """
        return self.susp_level.least_suspected()

    # ------------------------------------------------------------------ lifecycle --
    def on_start(self, env: Environment) -> None:
        """Start task T1 (periodic ALIVE broadcast) and the first receiving round."""
        self._started = True
        self._record_leader(env)
        self._broadcast_alive(env)
        self._schedule_alive(env)
        self._arm_round_timer(env, self.config.initial_timeout)

    def on_message(self, env: Environment, sender: int, message: Message) -> None:
        """Dispatch ALIVE / SUSPICION messages to the corresponding handler."""
        if isinstance(message, Alive):
            self._on_alive_message(env, sender, message)
        elif isinstance(message, Suspicion):
            self._on_suspicion_message(env, sender, message)
        else:
            raise TypeError(
                f"{self.variant_name} received unexpected message {message!r}"
            )

    def on_timer(self, env: Environment, timer: TimerHandle) -> None:
        """Dispatch the periodic ALIVE timer and the receiving-round timer."""
        if timer.name == ALIVE_TIMER:
            self._on_alive_timer(env)
        elif timer.name == ROUND_TIMER:
            self._on_round_timer(env, timer)
        else:
            raise ValueError(f"unknown timer {timer.name!r}")

    # ------------------------------------------------------------------ task T1 --
    def _schedule_alive(self, env: Environment) -> None:
        period = self.config.alive_period
        if self.config.pace_alive:
            # Send no faster than a receiving round can close (line 11).
            period = max(period, self.config.timeout_unit * self.susp_level.maximum())
        if self.config.alive_jitter:
            period += env.random.uniform(0.0, self.config.alive_jitter)
        env.set_timer(period, ALIVE_TIMER)

    def _on_alive_timer(self, env: Environment) -> None:
        self._broadcast_alive(env)
        self._schedule_alive(env)

    def _broadcast_alive(self, env: Environment) -> None:
        """Lines 2-3: increment ``s_rn`` and broadcast ``ALIVE(s_rn, susp_level)``."""
        self.sending_round += 1
        message = Alive(rn=self.sending_round, susp_level=self.susp_level.snapshot())
        env.broadcast(message, include_self=False)
        env.log("alive_broadcast", rn=self.sending_round)

    # ------------------------------------------------------------------ lines 4-7 --
    def _on_alive_message(self, env: Environment, sender: int, message: Alive) -> None:
        # merge_items consumes the message's snapshot tuple directly (no dict
        # materialised per delivery; one ALIVE is delivered to n-1 processes).
        self.susp_level.merge_items(message.susp_level)
        resync_gap = self.config.round_resync_gap
        if resync_gap is not None and message.rn - self.sending_round > resync_gap:
            # Rejoin the peers' ALIVE numbering: peers count no ALIVE below
            # their receiving round, so a restarted process numbering from 1
            # again would stay mute to them for as long as they had been up.
            # The skipped send rounds are those a process that was down never
            # sent anyway.
            self.counters["alive_rejoins"] += 1
            env.log("alive_rejoin", from_rn=self.sending_round, to_rn=message.rn)
            self.sending_round = message.rn
        if message.rn >= self.receiving_round:
            self.records.add_reception(message.rn, sender)
            if (
                resync_gap is not None
                and message.rn - self.receiving_round > resync_gap
                # Only a *stuck* round may be skipped: the timer has expired
                # (line 8's first condition holds) yet the alpha exact-round
                # receptions are still missing.  A receiving round that merely
                # lags the sending rounds — the normal regime whenever the
                # line-11 timeout exceeds the ALIVE period — closes on every
                # timer expiry and must NOT be skipped: skipping drops the
                # round's SUSPICION broadcast, and with only alpha processes
                # alive a single missing broadcast leaves that round short of
                # the line-* quorum forever, freezing the suspicion level of a
                # crashed process (and with it, a dead leader) in place.
                and self._round_timer_expired
                and self.records.reception_count(self.receiving_round) < self.alpha
            ):
                self._resync_round(env, message.rn)
        self._record_leader(env)
        self._try_finish_round(env)

    def _resync_round(self, env: Environment, rn: int) -> None:
        """Fast-forward a stalled receiving round (crash-recovery extension).

        The paper's line-8 rule cannot make progress when the ALIVE messages of
        the current round were lost to a partition or were never sent because
        a peer was down; jumping ahead restores liveness.  The jump lands on
        the first later round that already holds ``alpha`` receptions (on the
        observed round *rn* when there is none), so only rounds that can never
        fill are skipped: every closable round still gets its SUSPICION
        broadcast, and the line-``*`` window — which needs *consecutive*
        quorum rounds — keeps its evidence.  No SUSPICION is broadcast for the
        skipped rounds (we did not observe them, so we accuse nobody), which
        keeps the suspicion-counting safety unchanged.  Only runs when
        ``config.round_resync_gap`` is set, and only for rounds that are
        demonstrably stuck — timer expired, receptions short of ``alpha``, and
        a peer already ``resync_gap`` rounds ahead.
        """
        target = next(
            (
                later
                for later in range(self.receiving_round + 1, rn)
                if self.records.reception_count(later) >= self.alpha
            ),
            rn,
        )
        self.counters["round_resyncs"] += 1
        env.log("round_resync", from_rn=self.receiving_round, to_rn=target)
        self.receiving_round = target
        self._arm_round_timer(env, self._timeout_value())
        self._collect_garbage()

    # ------------------------------------------------------------------ lines 8-12 --
    def _on_round_timer(self, env: Environment, timer: TimerHandle) -> None:
        if self._round_timer is not None and timer.timer_id != self._round_timer.timer_id:
            # A stale timer from a round that has already been closed; ignore it.
            return
        self._round_timer_expired = True
        self._try_finish_round(env)

    def _try_finish_round(self, env: Environment) -> None:
        """Line 8: close the receiving round once the timer has expired *and* at
        least ``alpha`` (= ``n - t``) ALIVE messages of that round have been counted.
        """
        while (
            self._round_timer_expired
            and self.records.reception_count(self.receiving_round) >= self.alpha
        ):
            self._finish_round(env)

    def _finish_round(self, env: Environment) -> None:
        rn = self.receiving_round
        received = self.records.rec_from(rn)
        suspects = frozenset(pid for pid in range(self.n) if pid not in received)
        # The paper broadcasts unconditionally (line 10), even when the suspect set is
        # empty; so do we by default, so message-count experiments match its cost
        # discussion.  ``quiet_rounds`` skips the empty broadcast: lines 13-18 only
        # iterate over ``suspects``, so no receiver could have acted on it.
        if suspects or not self.config.quiet_rounds:
            self.counters["suspicions_sent"] += 1
            env.broadcast(Suspicion(rn=rn, suspects=suspects), include_self=True)
        env.log("round_closed", rn=rn, suspects=sorted(suspects))

        timeout = self._timeout_value()
        self.receiving_round = rn + 1
        self._arm_round_timer(env, timeout)
        self._collect_garbage()

    def _arm_round_timer(self, env: Environment, timeout: float) -> None:
        self._round_timer_expired = False
        self._round_timer = env.set_timer(timeout, ROUND_TIMER)
        self.timeout_history.append((env.now, timeout))

    def _timeout_value(self) -> float:
        """Line 11: reset the timer to ``max(susp_level)`` (in ``timeout_unit``s).

        The ``A_{f,g}`` subclass extends this with ``g(r_rn + 1)``.
        """
        return self.config.timeout_unit * self.susp_level.maximum()

    # ------------------------------------------------------------------ lines 13-18 --
    def _on_suspicion_message(
        self, env: Environment, sender: int, message: Suspicion
    ) -> None:
        rn = message.rn
        for suspect in message.suspects:
            if suspect not in self.susp_level:
                raise KeyError(f"suspicion names unknown process {suspect}")
            count = self.records.add_suspicion(rn, suspect)
            if count >= self.alpha and self._may_increase_level(suspect, rn):
                self.susp_level.increase(suspect)
                self.counters["level_increments"] += 1
        self._record_leader(env)

    def _may_increase_level(self, suspect: int, rn: int) -> bool:
        """Guard of line 17.  Figure 1 imposes no extra condition."""
        return True

    # ------------------------------------------------------------------ helpers --
    def _record_leader(self, env: Environment) -> None:
        current = self.leader()
        if not self.leader_history or self.leader_history[-1][1] != current:
            self.leader_history.append((env.now, current))
            env.log("leader_change", leader=current)

    def _collect_garbage(self) -> None:
        horizon = self.config.history_horizon
        if horizon is None:
            return
        # The line-* window for a SUSPICION(rn) message spans
        # [rn - susp_level[k] - f(rn), rn]; SUSPICION messages for rounds far below the
        # current receiving round can still arrive, so keep a generous margin: the
        # largest window that any future test could need plus the configured horizon.
        margin = self.susp_level.maximum() + self.config.window_extension(
            self.receiving_round
        )
        limit = self.receiving_round - margin - horizon
        if limit > self.records.purged_below:
            self.records.purge_below(limit)

    # ------------------------------------------------------------------ audit API --
    @property
    def current_timeout(self) -> float:
        """Return the value used for the most recent line-11 timer reset."""
        if not self.timeout_history:
            return self.config.initial_timeout
        return self.timeout_history[-1][1]

    def susp_level_snapshot(self) -> Dict[int, int]:
        """Return a copy of the suspicion-level array (for audits and tests)."""
        return self.susp_level.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(pid={self.pid}, n={self.n}, t={self.t}, "
            f"r_rn={self.receiving_round}, s_rn={self.sending_round})"
        )

"""Exhaustive check of the ballot rules, message by message.

:class:`~repro.consensus.replicated_log.Ballots` holds the Multi-Paxos rules
with no environment, timer or oracle, so a replica's state is a handful of
fields and the global states of a few replicas can be searched breadth-first
without a simulated service.  Every step runs through the real shell: a
:class:`~repro.consensus.replicated_log.ReplicatedLog` with no leases,
compaction or storage is rebuilt around the replica's ``Ballots`` state and
learner map, and ``on_message`` or ``_lead`` runs under a
:class:`~repro.testing.FakeEnvironment`.

* **state** — each replica's ballot state and learner map, plus the set of
  messages ever sent.  Any sent message may be delivered to its destination
  at any time, any number of times, which models loss, duplication and
  reordering at once (the network is non-FIFO and a crash loses messages).
  A reply that can no longer change anything is dropped from the set, which
  merges states that differ only in dead mail (see ``_dead_mask``);
* **proposers** — each proposer's client submitted one value before the run,
  which the log drops once it is decided.  Any proposer may start a ballot at
  any time within its budget: its ballot is dropped, as a demotion does, and
  ``_lead`` runs, as the next tick that names it leader does.  This stands
  for an oracle that names leaders adversarially.  An owning proposer may run
  ``_lead`` at any time, as a drive tick does.  A proposal for a position
  past the scope reaches no peer (its proposer's own acceptor still votes),
  which keeps every decision inside the scope;
* **checks at every state** — agreement per position, as pod states safety
  per pair of conflicting observations (no two learners learn different
  values at one position), and the Paxos P2c invariant (a value chosen at
  ballot b is the value every higher ballot proposes at that position).

A vote is what an acceptor writes: the core's store keeps its
``("acceptor", position)`` records and drops every other.  Time stands still
(``now`` is 0 and ``retry_period`` 1), so a re-send is a re-delivery and a
retried ``Prepare`` is a new ballot.

Four ballot mutants are subclasses below: ignore reported accepted values,
no promise check on accept, keep the ballot after promising a rival, and
skip the own acceptor's report.  Three yield a counterexample, pinned as a
step list and replayed through the shell; the fourth is disarmed because the
leader votes through its own acceptor.

The soak job runs the full scope from the command line, every state within
``SOAK_DEPTH`` steps::

    PYTHONPATH=src python tests/consensus/test_ballot_explorer.py
"""

from __future__ import annotations

import dataclasses
import resource
import sys
import time
from collections import Counter
from types import SimpleNamespace
from typing import Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro.consensus.messages import (
    Accepted,
    AcceptRequest,
    Decide,
    Nack,
    Prepare,
    Promise,
)
from repro.consensus.replicated_log import Ballots, ReplicatedLog
from repro.testing import FakeEnvironment

#: ``Ballots`` attributes that make up a replica's explored state (times are
#: constant while time stands still; the rest are references or parameters).
_FIELDS = (
    "promised",
    "accepted",
    "ballot",
    "owned",
    "promisers",
    "recovered",
    "nacked_ballot",
    "inflight",
    "inflight_value",
    "votes",
)
_BALLOT, _OWNED = _FIELDS.index("ballot"), _FIELDS.index("owned")


class Scope(NamedTuple):
    """What the search may do: *n* replicas; *starts* lists one proposer pid
    per ballot it may start; the i-th proposer (by pid) has
    ``values[i % len(values)]`` queued; messages for a position at or above
    *positions* are not sent."""

    n: int
    starts: Tuple[int, ...]
    values: Tuple[str, ...]
    positions: int


#: Tier-1's clean scope for the real rules.
TIER1 = Scope(n=3, starts=(0, 1), values=("a", "b"), positions=1)
#: The soak job's scope: three ballots, two values, positions {0, 1}.
FULL = Scope(n=3, starts=(0, 1, 2), values=("a", "b"), positions=2)
#: How deep the soak job searches the full scope: every state within this
#: many steps of the initial one is checked.
SOAK_DEPTH = 15


class Result(NamedTuple):
    states: int
    #: Every state within this many steps of the initial one was checked.
    depth: int
    #: True when no reachable state was left unchecked.
    complete: bool
    #: The steps from the initial state to the first violating state.
    counterexample: Optional[List[tuple]]
    violation: Optional[str]


class _Votes(list):
    """A core's stable store for one step: it keeps the acceptor's
    ``("acceptor", position)`` records, as ``(position, ballot, value)``
    votes, and drops the promise and decided records."""

    def put(self, key: tuple, value) -> None:
        if key[0] == "acceptor":
            self.append((key[1], *value))


class Explorer:
    """Breadth-first search over the global states of *scope* under the
    rules of *rules* (``Ballots`` or a mutant of it).

    A global state is a tuple of small integers: each replica's state id,
    each proposer's remaining ballots, and two bit sets — the live messages
    sent and the votes ever cast, as interned ``(src, dst, message)`` and
    ``(acceptor, position, ballot, value)``.  Per-replica transitions are
    memoised on the replica's state id, so most steps are table lookups.
    """

    def __init__(self, rules: type, scope: Scope) -> None:
        self.rules = rules
        self.scope = scope
        self.quorum = scope.n // 2 + 1
        self.proposers = tuple(sorted(set(scope.starts)))
        budget = Counter(scope.starts)
        self.initial_budget = tuple(budget[pid] for pid in self.proposers)
        self._envs = [FakeEnvironment(pid, scope.n) for pid in range(scope.n)]
        self._replica_states: List[tuple] = []
        self._replica_ids: Dict[tuple, int] = {}
        self._decided: List[Tuple[Optional[str], ...]] = []
        self.messages: List[tuple] = []
        self._message_ids: Dict[tuple, int] = {}
        self._accept_requests = 0  # bit set of the AcceptRequest message ids
        self.votes: List[tuple] = []
        self._vote_ids: Dict[tuple, int] = {}
        self._transitions: Dict[tuple, Tuple[int, int, int]] = {}
        self._dead: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._p2c: Dict[Tuple[int, int], Optional[str]] = {}

    # ------------------------------------------------------------ interning --
    def _replica_id(self, core: Ballots) -> int:
        fields = []
        for name in _FIELDS:
            value = getattr(core, name)
            if isinstance(value, dict):
                value = tuple(sorted(value.items()))
            elif isinstance(value, set):
                value = tuple(sorted(value))
            fields.append(value)
        key = (tuple(fields), tuple(sorted(core.decisions.items())))
        rid = self._replica_ids.get(key)
        if rid is None:
            rid = self._replica_ids[key] = len(self._replica_states)
            self._replica_states.append(key)
            decided = core.decisions
            self._decided.append(tuple(decided.get(pos) for pos in range(self.scope.positions)))
        return rid

    def _log(self, pid: int, rid: int) -> ReplicatedLog:
        """Replica *pid* in state *rid*: a log that learnt the state's
        decisions and queued its proposer's value, around a *rules* core
        holding the state's fields."""
        fields, decisions = self._replica_states[rid]
        n = self.scope.n
        oracle = SimpleNamespace(leader=lambda: pid)
        log = ReplicatedLog(pid, n, n - self.quorum, oracle, retry_period=1.0)
        for position, value in decisions:
            log._learn(position, value)
        if pid in self.proposers:
            log.submit(self.value(pid))
        core = self.rules(pid, n, self.quorum, log.retry_period, log.decisions, log.counters, _Votes())
        for name, value in zip(_FIELDS, fields):
            if name in ("accepted", "recovered"):
                value = dict(value)
            elif name in ("promisers", "votes"):
                value = set(value)
            setattr(core, name, value)
        log.ballots = core
        return log

    def _message_bit(self, envelope: tuple) -> int:
        mid = self._message_ids.get(envelope)
        if mid is None:
            mid = self._message_ids[envelope] = len(self.messages)
            self.messages.append(envelope)
            if isinstance(envelope[2], AcceptRequest):
                self._accept_requests |= 1 << mid
        return 1 << mid

    def _vote_bit(self, vote: tuple) -> int:
        vid = self._vote_ids.get(vote)
        if vid is None:
            vid = self._vote_ids[vote] = len(self.votes)
            self.votes.append(vote)
        return 1 << vid

    def value(self, pid: int) -> str:
        """The value proposer *pid*'s client submitted."""
        values = self.scope.values
        return values[self.proposers.index(pid) % len(values)]

    # ------------------------------------------------------------ one replica --
    def _run(self, pid: int, rid: int, action: tuple) -> Tuple[int, int, int]:
        """Apply *action* at replica *pid* in state *rid*: its new state id,
        and the bits of the messages it sent and the votes it cast."""
        key = (pid, rid, action)
        done = self._transitions.get(key)
        if done is not None:
            return done
        log, env = self._log(pid, rid), self._envs[pid]
        env.clear_sent()
        if action[0] == "deliver":
            sender, _, message = self.messages[action[1]]
            log.on_message(env, sender, message)
        else:
            if action[0] == "start":
                log.ballots.drop_ballot()  # the oracle names it leader afresh
            log._lead(env)
        sent = cast = 0
        for item in env.sent:
            if getattr(item.message, "instance", 0) < self.scope.positions:
                sent |= self._message_bit((pid, item.dest, item.message))
        for vote in log.ballots.store:
            cast |= self._vote_bit((pid, *vote))
        done = (self._replica_id(log.ballots), sent, cast)
        self._transitions[key] = done
        return done

    # ------------------------------------------------------------ global state --
    def initial(self) -> tuple:
        rids = tuple(
            self._replica_id(self.rules(pid, self.scope.n, self.quorum, 1.0, {}, Counter()))
            for pid in range(self.scope.n)
        )
        return rids + self.initial_budget + (0, 0)

    def successors(self, state: tuple):
        """``(action, state)`` for every step enabled in *state* that changes it."""
        n = self.scope.n
        bits = state[-2]
        while bits:
            low = bits & -bits
            mid = low.bit_length() - 1
            bits ^= low
            after = self._apply(state, self.messages[mid][1], ("deliver", mid))
            if after is not None:
                yield ("deliver", mid), after
        for index, pid in enumerate(self.proposers):
            if state[n + index] > 0:
                yield ("start", pid), self._start(state, index)
            if self._replica_states[state[pid]][0][_OWNED]:
                after = self._apply(state, pid, ("lead",))
                if after is not None:
                    yield ("lead", pid), after

    def _start(self, state: tuple, index: int) -> tuple:
        """*state* after the *index*-th proposer spent a ballot on a start."""
        n = self.scope.n
        after = self._apply(state, self.proposers[index], ("start",)) or state
        budget = list(after[n:-2])
        budget[index] -= 1
        return after[:n] + tuple(budget) + after[-2:]

    def _apply(self, state: tuple, pid: int, action: tuple) -> Optional[tuple]:
        """*state* after *action* at replica *pid*, or None when nothing changes."""
        n = self.scope.n
        rid, sent, cast = self._run(pid, state[pid], action)
        sent |= state[-2]
        cast |= state[-1]
        if rid == state[pid] and sent == state[-2] and cast == state[-1]:
            return None
        rids = state[:pid] + (rid,) + state[pid + 1 : n]
        for dest in range(n):
            sent &= ~self._dead_mask(dest, rids[dest])
        return rids + state[n:-2] + (sent, cast)

    def _dead_mask(self, pid: int, rid: int) -> int:
        """The replies to replica *pid* that can change nothing there, now or
        later, in state *rid*.  Forgetting them merges states that differ
        only in dead mail.  Each rule rests on a monotone fact: a learnt
        position stays learnt, and a proposer never returns to a ballot it
        left (its next one is above its own promise of the last), so a reply
        for a ballot other than the one it holds, or a promise for one it no
        longer prepares, is inert for good.  Requests are never forgotten:
        an acceptor may still vote for one."""
        known, mask = self._dead.get((pid, rid), (0, 0))
        if known < len(self.messages):
            fields, _ = self._replica_states[rid]
            ballot, owned = fields[_BALLOT], fields[_OWNED]
            decided = self._decided[rid]
            for mid in range(known, len(self.messages)):
                _, dest, message = self.messages[mid]
                if dest != pid:
                    continue
                if isinstance(message, Decide):
                    dead = decided[message.instance] is not None
                elif isinstance(message, Promise):
                    dead = message.ballot != ballot or owned
                elif isinstance(message, (Accepted, Nack)):
                    dead = message.ballot != ballot
                else:
                    dead = False
                if dead:
                    mask |= 1 << mid
            self._dead[(pid, rid)] = (len(self.messages), mask)
        return mask

    def violation(self, state: tuple) -> Optional[str]:
        """What *state* breaks, or None: agreement across learners, then P2c."""
        learnt = [self._decided[rid] for rid in state[: self.scope.n]]
        for position in range(self.scope.positions):
            values = {decided[position] for decided in learnt} - {None}
            if len(values) > 1:
                return f"agreement: position {position} learnt as {sorted(values)}"
        key = (state[-1], state[-2] & self._accept_requests)
        if key not in self._p2c:
            self._p2c[key] = self._check_p2c(*key)
        return self._p2c[key]

    def _check_p2c(self, cast: int, accept_requests: int) -> Optional[str]:
        voters: Dict[tuple, set] = {}
        for vid, vote in enumerate(self.votes):
            if cast >> vid & 1:
                acceptor, position, ballot, value = vote
                voters.setdefault((position, ballot, value), set()).add(acceptor)
        chosen = [key for key, who in voters.items() if len(who) >= self.quorum]
        for mid, (_, _, message) in enumerate(self.messages):
            if not accept_requests >> mid & 1:
                continue
            for position, ballot, value in chosen:
                if (
                    message.instance == position
                    and message.ballot > ballot
                    and message.value != value
                ):
                    return (
                        f"P2c: {value!r} chosen at ballot {ballot}, position {position}; "
                        f"ballot {message.ballot} proposes {message.value!r}"
                    )
        return None

    # ------------------------------------------------------------ search --
    def explore(self, depth: Optional[int] = None, trace: bool = True) -> Result:
        """Search until every reachable state is checked (with *depth*, every
        state within *depth* steps of the initial one) or a violation is found."""
        root = self.initial()
        parents: Dict[tuple, Optional[tuple]] = {root: None}
        seen = parents if trace else {root}
        frontier, level = [root], 0
        while frontier and (depth is None or level < depth):
            following = []
            for state in frontier:
                for action, after in self.successors(state):
                    if after in seen:
                        continue
                    if trace:
                        parents[after] = (state, action)
                    else:
                        seen.add(after)
                    problem = self.violation(after)
                    if problem is not None:
                        steps = self._steps(parents, after) if trace else None
                        return Result(len(seen), level + 1, False, steps, problem)
                    following.append(after)
            frontier, level = following, level + 1
        if frontier:
            return Result(len(seen), level, False, None, None)
        return Result(len(seen), level - 1, True, None, None)

    def _steps(self, parents: dict, state: tuple) -> List[tuple]:
        steps = []
        while parents[state] is not None:
            state, action = parents[state]
            if action[0] == "deliver":
                steps.append(self.messages[action[1]])
            else:
                steps.append(action)
        return steps[::-1]


# ---------------------------------------------------------------- mutants --
class IgnoreReportedValues(Ballots):
    """A new owner never learns what the promisers accepted."""

    def on_promise(self, sender, message):
        return super().on_promise(sender, dataclasses.replace(message, accepted=()))


class NoPromiseCheckOnAccept(Ballots):
    """An acceptor accepts a ballot below its promise too (and keeps the
    promise where it was)."""

    def on_accept_request(self, message):
        promised = self.promised
        self.promised = min(promised, message.ballot)
        reply = super().on_accept_request(message)
        self.promised = max(promised, self.promised)
        return reply


class KeepBallotAfterRival(Ballots):
    """Promising a rival's higher ballot keeps this proposer's own."""

    def _promise(self, ballot):
        self.promised = ballot


class SkipOwnAcceptorReport(Ballots):
    """A new owner ignores what its own acceptor accepted."""

    def on_promise(self, sender, message):
        if sender == self.pid:
            message = dataclasses.replace(message, accepted=())
        return super().on_promise(sender, message)


# ----------------------------------------------------- pinned counterexamples --
#: The shortest counterexample the search finds for each mutant at TIER1's
#: scope: ``("start", pid)``, ``("lead", pid)`` or a delivered
#: ``(src, dst, message)``.  In each, ``"a"`` is chosen at ballot 0 by
#: replicas 0 and 1, and the ``Promise`` that closes ballot 4's quorum has
#: replica 1 propose ``"b"`` at the same position in that turn.
COUNTEREXAMPLES = {
    # Replica 0's promise reports the "a" it accepted; ballot 4 ignores it.
    IgnoreReportedValues: [
        ("start", 0),
        (0, 1, Prepare(ballot=0, from_position=0)),
        (1, 0, Promise(ballot=0, accepted=(), decisions=())),
        (0, 1, AcceptRequest(instance=0, ballot=0, value="a")),
        ("start", 1),
        (1, 0, Prepare(ballot=4, from_position=0)),
        (0, 1, Promise(ballot=4, accepted=((0, 0, "a"),), decisions=())),
    ],
    # Replica 1 accepts ballot 0 after promising its own ballot 4, so its
    # own promise could not report it.
    NoPromiseCheckOnAccept: [
        ("start", 0),
        (0, 1, Prepare(ballot=0, from_position=0)),
        (1, 0, Promise(ballot=0, accepted=(), decisions=())),
        ("start", 1),
        (0, 1, AcceptRequest(instance=0, ballot=0, value="a")),
        (1, 2, Prepare(ballot=4, from_position=0)),
        (2, 1, Promise(ballot=4, accepted=(), decisions=())),
    ],
    # Replica 1 accepted "a" itself, and its quorum for ballot 4 is itself
    # and replica 2, which holds nothing.
    SkipOwnAcceptorReport: [
        ("start", 0),
        (0, 1, Prepare(ballot=0, from_position=0)),
        (1, 0, Promise(ballot=0, accepted=(), decisions=())),
        (0, 1, AcceptRequest(instance=0, ballot=0, value="a")),
        ("start", 1),
        (1, 2, Prepare(ballot=4, from_position=0)),
        (2, 1, Promise(ballot=4, accepted=(), decisions=())),
    ],
}


def replay(rules: type, scope: Scope, steps: List[tuple]) -> Tuple[Optional[str], int]:
    """Run *steps* against *rules*; a delivery of a message this run never
    sent (or no longer holds) is skipped.  Returns the last state's violation
    and how many deliveries were skipped."""
    explorer = Explorer(rules, scope)
    state = explorer.initial()
    skipped = 0
    for step in steps:
        if step[0] == "start":
            state = explorer._start(state, explorer.proposers.index(step[1]))
        elif step[0] == "lead":
            state = explorer._apply(state, step[1], ("lead",)) or state
        else:
            mid = explorer._message_ids.get(step)
            if mid is None or not state[-2] >> mid & 1:
                skipped += 1
                continue
            state = explorer._apply(state, step[1], ("deliver", mid)) or state
    return explorer.violation(state), skipped


# ---------------------------------------------------------------- tests --
def test_the_real_rules_are_clean_at_the_tier1_scope():
    """Every reachable state of two proposers with one ballot each, two
    values and one position: 58,756 states, 18 steps deep.  (73,528 and 19
    while a quorum that closed on one queued value left it to the tick.)"""
    result = Explorer(Ballots, TIER1).explore(trace=False)
    assert result.violation is None
    assert (result.complete, result.states, result.depth) == (True, 58756, 18)


@pytest.mark.parametrize("mutant", list(COUNTEREXAMPLES), ids=lambda cls: cls.__name__)
def test_a_mutant_yields_its_pinned_shortest_counterexample(mutant):
    result = Explorer(mutant, TIER1).explore()
    assert result.violation is not None
    assert result.counterexample == COUNTEREXAMPLES[mutant]


@pytest.mark.parametrize("mutant", list(COUNTEREXAMPLES), ids=lambda cls: cls.__name__)
def test_a_pinned_counterexample_fails_its_mutant_and_not_the_real_rules(mutant):
    steps = COUNTEREXAMPLES[mutant]
    violation, skipped = replay(mutant, TIER1, steps)
    assert violation is not None and violation.startswith("P2c") and skipped == 0
    assert replay(Ballots, TIER1, steps)[0] is None


def test_keeping_the_ballot_after_promising_a_rival_is_disarmed():
    """The mutant keeps ownership when it promises a rival's higher ballot,
    but the leader's own vote goes through its own promise check: its own
    ``AcceptRequest`` draws its own ``Nack``, and ownership drops in that
    turn.  The fan-out has left, but no quorum can form for it."""
    log = ReplicatedLog(pid=0, n=3, t=1, oracle=SimpleNamespace(leader=lambda: 0))
    log.ballots = KeepBallotAfterRival(0, 3, 2, log.retry_period, log.decisions, log.counters)
    env = FakeEnvironment(pid=0, n=3)
    log.on_start(env)
    log.submit("first")
    env.advance(log.drive_period)
    env.fire_due_timers(log)
    (owned,) = {m.ballot for m in env.messages_of_type(Prepare)}
    log.on_message(env, 1, Promise(ballot=owned, accepted=(), decisions=()))
    log.on_message(env, 1, Accepted(instance=0, ballot=owned, value="first"))
    assert log.decided_log() == {0: "first"}
    log.on_message(env, 2, Prepare(ballot=owned + 3, from_position=1))
    assert log.ballots.owned  # the mutant's defect
    env.clear_sent()
    log.submit("second")  # an idle owning leader proposes at once
    assert {(m.instance, m.ballot) for m in env.messages_of_type(AcceptRequest)} == {(1, owned)}
    assert not log.ballots.owned
    assert log.ballots.nacked_ballot == owned + 3
    assert log.ballots.accepted == {}
    log.on_message(env, 1, Accepted(instance=1, ballot=owned, value="second"))
    assert env.messages_of_type(Decide) == [] and log.frontier == 1


def _main() -> int:
    started = time.process_time()
    result = Explorer(Ballots, FULL).explore(depth=SOAK_DEPTH, trace=False)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    print(
        f"{FULL}: {result.states} states, every one within {result.depth} steps checked, "
        f"{'complete' if result.complete else 'deeper states left'}, "
        f"{time.process_time() - started:.1f} s CPU, peak RSS {peak_mb} MB"
    )
    if result.violation is not None:
        print(f"violation: {result.violation}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(_main())

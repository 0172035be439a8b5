"""The quorum-amnesia hazard: agreement breaks under storage-less restarts.

Consensus safety rests on quorum intersection — any two quorums share an
acceptor that *remembers* the accepted value of the earlier ballot.  Crash
recovery without stable storage wipes that memory: ``Recover`` hands the
process a factory-fresh algorithm, so a restarted acceptor happily re-promises
a lower ballot.  Back-to-back restarts of two acceptors around a leader change
then let a second leader drive a *different* value to decision in the same
instance — an agreement violation the deterministic schedule below exhibits.

The schedule (n=3, t=1, quorum=2, constant 0.5 delays, scripted leadership —
p0 until t=30, p2 after):

* t=2..4.5  — leader p0 proposes ``A`` at position 0; all three acceptors
  accept ``(ballot 3, A)``; p0 reaches an Accepted quorum and **decides A**.
  Its ``Decide`` broadcast (and every later catch-up reply) is lost: the
  links p0->p1 and p0->p2 are cut at t=3.75, after the AcceptRequest was
  already in flight.
* t=10..20  — back-to-back restarts: p1 crashes at 10 and recovers at 14,
  p2 crashes at 16 and recovers at 20 (never more than t=1 down).  Without
  stable storage both come back amnesic — no promise, no accepted value.
* t=30..    — leadership moves to p2, which proposes its own value ``B`` at
  position 0 with ballot 5.  The promise quorum {p1, p2} is entirely amnesic
  and reports no accepted value (p0's promise, which carries ``A``, is lost
  on the cut link), so p2 free-picks ``B`` and decides it at {p1, p2}.

Result with storage off: position 0 is decided as ``A`` at p0 and ``B`` at
p1/p2 — agreement violated (kept below as a witness).  With
``System(storage=...)`` the recoveries rehydrate the acceptors' durable
promises, the promise quorum reports ``(3, A)``, and p2 is forced to re-propose
``A``: one value, decided everywhere.  Same seed, same plan, same schedule —
only durability differs.
"""

import pytest

from repro.consensus.replicated_log import ReplicatedLog
from repro.core.interfaces import LeaderOracle
from repro.simulation.delays import ConstantDelay
from repro.simulation.faults import Crash, FaultPlan, LinkFault, Recover
from repro.simulation.scheduler import EventScheduler
from repro.simulation.system import System, SystemConfig
from repro.storage import StableStorage

N, T = 3, 1
SWITCH_AT = 30.0
HORIZON = 60.0


class ScriptedOracle(LeaderOracle):
    """Deterministic leadership schedule: p0 until ``SWITCH_AT``, p2 after.

    Replaces the Omega layer so the leader change happens at an exact virtual
    time — the schedule, not an election, is what the regression pins down.
    """

    def __init__(self, scheduler: EventScheduler) -> None:
        self._scheduler = scheduler

    def leader(self) -> int:
        return 0 if self._scheduler.now < SWITCH_AT else 2


def amnesia_plan() -> FaultPlan:
    """Cut p0's outgoing links after its AcceptRequest, then restart p1 and p2."""
    return FaultPlan(
        [
            # After the AcceptRequest (sent t=3.0, delivered t=3.5) but before
            # the Decide broadcast (sent t=4.0): p0's decision stays private.
            LinkFault(time=3.75, sender=0, dest=1, block=True),
            LinkFault(time=3.75, sender=0, dest=2, block=True),
            # Back-to-back restarts of the two other acceptors.
            Crash(time=10.0, pid=1),
            Recover(time=14.0, pid=1),
            Crash(time=16.0, pid=2),
            Recover(time=20.0, pid=2),
        ]
    )


def run_schedule(stable_storage: bool):
    """Run the amnesia schedule; return the system (p0 submitted A, p2 B)."""
    scheduler = EventScheduler()
    oracle = ScriptedOracle(scheduler)

    def factory(pid: int) -> ReplicatedLog:
        return ReplicatedLog(pid=pid, n=N, t=T, oracle=oracle)

    system = System(
        SystemConfig(n=N, t=T, seed=7),
        factory,
        ConstantDelay(0.5),
        fault_plan=amnesia_plan(),
        scheduler=scheduler,
        storage=StableStorage() if stable_storage else None,
    )
    system.shells[0].algorithm.submit("A")
    # B reaches p2 only after its final recovery (a recovery replaces the
    # algorithm object, so submitting earlier would hand B to a dead one).
    scheduler.schedule_at(31.0, lambda: system.shells[2].algorithm.submit("B"))
    system.run_until(HORIZON)
    return system


def decided_at_position_zero(system) -> dict:
    """pid -> decided value of log position 0 (only pids that decided it)."""
    return {
        shell.pid: shell.algorithm.decisions[0]
        for shell in system.shells
        if 0 in shell.algorithm.decisions
    }


class TestQuorumAmnesia:
    def test_storage_off_witness_agreement_is_violated(self):
        """Witness of the amnesic behaviour: without stable storage the
        schedule decides TWO different values for position 0.  Kept to document
        the storage-off hazard the ``FaultPlan.amnesia_hazards`` admission flag
        warns about."""
        system = run_schedule(stable_storage=False)
        decided = decided_at_position_zero(system)
        assert decided[0] == "A"  # p0 decided A before the links were cut
        assert decided[1] == "B" and decided[2] == "B"  # amnesic re-decision
        assert len(set(decided.values())) == 2  # agreement violated

    def test_stable_storage_restores_agreement(self):
        """With durable acceptor state the same schedule decides one value:
        the rehydrated promise quorum reports ``(3, A)``, forcing the second
        leader to re-propose A instead of free-picking B."""
        system = run_schedule(stable_storage=True)
        decided = decided_at_position_zero(system)
        assert set(decided) == {0, 1, 2}  # everyone decided position 0
        assert set(decided.values()) == {"A"}
        # Agreement across the whole log, not just position 0.
        by_position: dict = {}
        for shell in system.shells:
            for position, value in shell.algorithm.decisions.items():
                by_position.setdefault(position, set()).add(value)
        assert all(len(values) == 1 for values in by_position.values())
        # B was not lost, just ordered later (p2 proposed it at position 1).
        assert by_position.get(1) == {"B"}

    def test_plan_is_flagged_amnesia_unsafe(self):
        """Admission: the schedule's plan is exactly what ``amnesia_hazards``
        exists to flag — and ``require_quorum_memory`` rejects it outright."""
        plan = amnesia_plan()
        plan.validate(N, T)  # fine under the plain AS_{n,t} budget
        hazards = plan.amnesia_hazards(N, T)
        assert len(hazards) == 1 and "shrink a promise quorum" in hazards[0]
        with pytest.raises(ValueError, match="amnesia-unsafe"):
            plan.validate(N, T, require_quorum_memory=True)

    def test_restart_free_plans_are_amnesia_safe(self):
        assert FaultPlan.crashes({1: 5.0}).amnesia_hazards(N, T) == []
        # With n=5, t=1 quorums overlap in 3 acceptors; one restart is safe.
        one_restart = FaultPlan([Crash(time=5.0, pid=1), Recover(time=9.0, pid=1)])
        assert one_restart.amnesia_hazards(5, 1) == []
        one_restart.validate(5, 1, require_quorum_memory=True)
        # Three restarted processes cover an intersection: flagged again.
        three = FaultPlan.rolling_restarts([1, 2, 3], start=5.0, downtime=4.0)
        assert three.amnesia_hazards(5, 1)

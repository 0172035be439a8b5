"""Property-based test (hypothesis) for the leader ballot under a hostile oracle.

Safety of the replicated log may rest on nothing the oracle does (indulgence):
whatever leaders it names, for however long, to whichever processes.  So the
oracle here is scripted *against* the protocol — per-process views that flap
between two duelling self-appointed leaders — on lossy links, with replicas
restarting from stable storage in the middle of it.  Ballot ownership changes
hands as fast as ``Prepare``/``Nack`` can carry it, accept rounds are cut
short at every stage, and a restarted owner comes back with nothing but its
durable promise.  Once the oracle settles and links heal, three things must
hold:

* **agreement** — no log position is decided with two values anywhere;
* **validity** — every decided value is the no-op filler or was submitted;
* **exactly-once** — every replica's state machine applied each submitted
  command once and only once, however many positions ended up carrying it.
"""

from hypothesis import given, settings, strategies as st

from repro.consensus.commands import Command, flatten_value
from repro.consensus.replicated_log import NOOP, ReplicatedLog
from repro.service.state_machine import KeyValueStore
from repro.simulation.delays import ConstantDelay
from repro.simulation.faults import Crash, FaultPlan, LinkFault, Recover
from repro.simulation.system import System, SystemConfig
from repro.storage import StableStorage

N, T = 3, 1
#: The two self-appointed leaders; the third process wavers between them.
DUELLISTS = (0, 1)
CALM_LEADER = 2


class FlappingOracle:
    """Per-process leader views over time, then one leader for everybody.

    *phases* is ``[(duration, waverer's choice)]``: during a phase each
    duellist names itself and process 2 names its choice of the two.
    """

    def __init__(self, pid, clock, phases):
        self._pid, self._clock = pid, clock
        self._schedule, end = [], 0.0
        for duration, choice in phases:
            end += duration
            self._schedule.append((end, choice))
        self.calm_at = end

    def leader(self):
        now = self._clock()
        for end, choice in self._schedule:
            if now < end:
                return self._pid if self._pid in DUELLISTS else choice
        return CALM_LEADER


def build(seed, phases, losses, restarts):
    """The system, the state machine of each process's current incarnation
    (a recovery rebuilds it from the durable log) and when the chaos ends."""
    holder, machines = [], {}

    def factory(pid):
        machine = machines[pid] = KeyValueStore()

        def apply(position, value):
            for command in flatten_value(value):
                machine.apply(command)

        oracle = FlappingOracle(pid, lambda: holder[0].scheduler.now, phases)
        log = ReplicatedLog(pid=pid, n=N, t=T, oracle=oracle, batch_size=3)
        log.on_deliver = apply
        return log

    calm_at = sum(duration for duration, _ in phases)
    events = [
        LinkFault(time=0.0, sender=s, dest=d, loss_probability=p, until=calm_at + 1.0)
        for (s, d), p in losses.items()
        if p
    ]
    clock = 5.0
    for pid, gap, downtime in restarts:  # one at a time: never more than t down
        clock += gap
        events += [Crash(time=clock, pid=pid), Recover(time=clock + downtime, pid=pid)]
        clock += downtime
    system = System(
        SystemConfig(n=N, t=T, seed=seed),
        factory,
        ConstantDelay(0.5),
        fault_plan=FaultPlan(events),
        storage=StableStorage(),
    )
    holder.append(system)
    return system, machines, max(calm_at, clock) + 1.0


PHASES = st.lists(
    st.tuples(st.floats(min_value=1.0, max_value=14.0), st.sampled_from(DUELLISTS)),
    min_size=2,
    max_size=8,
)
LOSSES = st.fixed_dictionaries(
    {
        (s, d): st.sampled_from([0.0, 0.0, 0.3, 0.6])
        for s in range(N)
        for d in range(N)
        if s != d
    }
)
RESTARTS = st.lists(
    st.tuples(
        st.integers(0, N - 1),
        st.floats(min_value=1.0, max_value=12.0),
        st.floats(min_value=1.0, max_value=8.0),
    ),
    max_size=3,
)


class TestBallotSafetyUnderDuellingLeaders:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        phases=PHASES,
        losses=LOSSES,
        restarts=RESTARTS,
        submit_every=st.floats(min_value=0.7, max_value=4.0),
    )
    def test_agreement_validity_and_exactly_once(
        self, seed, phases, losses, restarts, submit_every
    ):
        system, machines, calm_at = build(seed, phases, losses, restarts)
        commands = [
            Command.incr(f"client-{index % 4}", index // 4 + 1, f"c{index % 3}")
            for index in range(24)
        ]

        def submit(index):
            # To whoever is up; a crashed gateway loses it (volatile by design).
            shell = system.shells[index % N]
            if not shell.crashed:
                shell.algorithm.submit(commands[index])

        for index in range(len(commands)):
            system.scheduler.schedule_at(1.0 + index * submit_every, submit, index)
        system.run_until(calm_at)

        # Calm: one leader, healed links, everybody up.  Clients retransmit
        # what they never saw applied, as clients do.
        deadline = calm_at + 400.0
        while system.scheduler.now < deadline:
            if all(machine.applied == len(commands) for machine in machines.values()):
                break
            leader_log = system.shells[CALM_LEADER].algorithm
            for command in commands:
                leader_log.submit(command)
            system.run_until(system.scheduler.now + 20.0)

        by_position = {}
        for shell in system.shells:
            for position, value in shell.algorithm.decisions.items():
                by_position.setdefault(position, set()).add(value)
        assert all(len(values) == 1 for values in by_position.values()), {
            position: values for position, values in by_position.items() if len(values) > 1
        }
        submitted = set(commands)
        for (value,) in by_position.values():
            assert value == NOOP or set(flatten_value(value)) <= submitted
        for machine in machines.values():
            assert machine.applied == len(commands), "a command was never applied"
            for key in ("c0", "c1", "c2"):
                assert machine.get(key, 0) == len(commands) // 3
        assert len({machine.digest() for machine in machines.values()}) == 1

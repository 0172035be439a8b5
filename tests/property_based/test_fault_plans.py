"""Property-based tests (hypothesis) for the fault-plan engine.

Three invariants over *random* fault plans:

* determinism — same seed + same plan ⇒ identical run fingerprints;
* stabilised leadership — after every fault of the plan has ended (random plans
  always heal their partitions and bound their link faults), the system settles
  to **one** leader per reachable component.  Post-quiescence there is exactly
  one component (the eventually-up processes), so two leaders inside it at the
  end of the run would be an Omega violation under churn; and
* admission agrees with the engine — the end state ``FaultPlan.final_state``
  replays a plan into, which ``Scenario.fault_plan_violations`` judges, is the
  state the injector leaves a running system in.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import component_agreed_leaders, reachable_components
from repro.core.config import OmegaConfig
from repro.core.figure3 import Figure3Omega
from repro.core.interfaces import Process
from repro.simulation import (
    ConstantDelay,
    CorruptLink,
    Crash,
    FaultPlan,
    LinkFault,
    LinkHeal,
    LinkState,
    PartitionHeal,
    PartitionStart,
    Recover,
    SlowProcess,
    System,
    SystemConfig,
    UniformDelay,
)
from repro.util.rng import RandomSource, fingerprint

FAULT_HORIZON = 60.0  # every fault of the random plan ends by here
RUN_UNTIL = 360.0  # generous stabilisation margin past the last fault


def _random_plan(seed: int, n: int, t: int) -> FaultPlan:
    return FaultPlan.random(
        n=n,
        t=t,
        rng=RandomSource(seed, label="plan"),
        horizon=FAULT_HORIZON,
        recover_probability=0.6,
        partition_probability=0.6,
        flaky_link_count=1,
    )


def _run(seed: int, n: int, t: int, plan: FaultPlan) -> System:
    # Partitions lose ALIVE messages and a process that is down sends none,
    # both of which can stall the paper's exact-round closing rule — enable
    # the crash-recovery round clock, as the sharded service does for such
    # plans (OmegaConfig.round_resync_gap).
    config = OmegaConfig(round_resync_gap=8)
    system = System(
        SystemConfig(n=n, t=t, seed=seed),
        lambda pid: Figure3Omega(pid=pid, n=n, t=t, config=config),
        UniformDelay(0.3, 1.5, RandomSource(seed, label="fault-prop")),
        fault_plan=plan,
    )
    system.run_until(RUN_UNTIL)
    return system


def _fingerprint(system: System) -> str:
    return fingerprint(
        {
            "executed": system.scheduler.executed,
            "stats": system.stats.as_dict(),
            "histories": {
                shell.pid: shell.algorithm.leader_history for shell in system.shells
            },
        }
    )


class TestRandomFaultPlanProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_plan_identical_fingerprints(self, seed):
        n, t = 4, 1
        first = _fingerprint(_run(seed, n, t, _random_plan(seed, n, t)))
        second = _fingerprint(_run(seed, n, t, _random_plan(seed, n, t)))
        assert first == second

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_one_leader_per_reachable_component_after_stabilisation(self, seed):
        n, t = 5, 2
        plan = _random_plan(seed, n, t)
        system = _run(seed, n, t, plan)
        # The random plan is quiet after FAULT_HORIZON: partition healed, link
        # faults expired.  The up processes therefore form one component.
        components = reachable_components(system)
        assert len(components) == 1
        up = set(components[0])
        assert up  # at most t crash permanently, so someone is always up
        agreed = component_agreed_leaders(system)
        # One component, one agreed leader inside it — and the leader is a
        # process that is actually up (electing a crashed process would hand
        # the component a phantom leader).
        assert len(agreed) == 1
        assert agreed[0] is not None
        assert agreed[0] in up


class _Silent(Process):
    """A process that sends nothing: only the fault engine acts."""

    def on_message(self, env, sender, message):
        pass


def _topology(links, n):
    """What admission reads of a link matrix, plus its size per kind."""
    return links.partition_groups(n), links.blocked_links(), links.garbling_links(), repr(links)


def _assert_the_engine_ends_where_the_fold_does(plan, n, t):
    down, folded = plan.final_state(n)
    end = 1.0 + max(max(event.time, getattr(event, "until", None) or 0.0) for event in plan.events)
    system = System(SystemConfig(n=n, t=t), lambda pid: _Silent(), ConstantDelay(1.0), fault_plan=plan)
    system.run_until(end)
    assert [shell.pid for shell in system.shells if shell.crashed] == sorted(down)
    engine = system.link_state or LinkState(None)
    assert _topology(engine, n) == _topology(folded, n)


@st.composite
def _topology_events(draw, n):
    """One topology event at a small integer time (so instants tie), with or
    without an ``until``; links, partition sides and probabilities are drawn."""
    time = float(draw(st.integers(0, 6)))
    until = draw(st.sampled_from([None, time + 1.0, time + 3.0]))
    sender, dest = draw(st.permutations(range(n)))[:2]
    kind = draw(st.sampled_from(["partition", "heal", "link", "linkheal", "corrupt", "slow"]))
    if kind == "partition":
        side = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        return PartitionStart(time=time, groups=(tuple(sorted(side)),))
    if kind == "heal":
        return PartitionHeal(time=time)
    if kind == "link":
        return LinkFault(
            time=time, sender=sender, dest=dest, block=draw(st.booleans()),
            loss_probability=draw(st.sampled_from([0.0, 0.5, 1.0])), until=until,
        )
    if kind == "linkheal":
        return LinkHeal(time=time, sender=sender, dest=dest)
    if kind == "corrupt":
        return CorruptLink(
            time=time, sender=sender, dest=dest,
            probability=draw(st.sampled_from([0.5, 1.0])), until=until,
        )
    return SlowProcess(time=time, pid=sender, factor=draw(st.sampled_from([1.0, 3.0])), until=until)


def _link(kind, time, **fields):
    return kind(time=time, sender=0, dest=1, **fields)


#: Orderings whose end state hangs on the injector's expiry and heal rules.
HAND_BUILT_ORDERINGS = {
    "permanent-replaced-by-until": [
        _link(LinkFault, 1.0, block=True),
        _link(LinkFault, 2.0, block=True, until=5.0),
        _link(CorruptLink, 1.0),
        _link(CorruptLink, 2.0, until=5.0),
    ],
    "heal-between-two-faults": [
        _link(LinkFault, 1.0, block=True, until=9.0),
        _link(LinkHeal, 2.0),
        _link(LinkFault, 3.0, block=True),
        _link(CorruptLink, 1.0),
        _link(LinkHeal, 2.5),
        _link(CorruptLink, 4.0, probability=0.5),
    ],
    "permanent-after-one-that-expires": [
        _link(LinkFault, 1.0, block=True, until=2.0),
        _link(LinkFault, 4.0, block=True),
        _link(CorruptLink, 1.0, until=2.0),
        _link(CorruptLink, 4.0),
        SlowProcess(time=1.0, pid=2, factor=3.0, until=2.0),
        SlowProcess(time=4.0, pid=2, factor=2.0),
    ],
    "permanent-inside-the-window-of-one-that-expires": [
        _link(LinkFault, 1.0, block=True, until=5.0),
        _link(LinkFault, 3.0, block=True),
    ],
    "same-instant": [
        _link(LinkFault, 2.0, block=True),
        _link(LinkFault, 2.0, loss_probability=0.5, until=4.0),
        _link(LinkHeal, 2.0),
        _link(CorruptLink, 2.0),
        PartitionStart(time=2.0, groups=((0,),)),
        PartitionHeal(time=2.0),
        PartitionStart(time=2.0, groups=((2,),)),
        Crash(time=2.0, pid=1),
        Recover(time=2.0, pid=1),
        Crash(time=2.0, pid=2),
    ],
    "listed-out-of-time-order": [
        _link(LinkFault, 5.0, block=True),
        _link(LinkFault, 1.0, block=True, until=3.0),
        _link(CorruptLink, 6.0),
        PartitionHeal(time=7.0),
        PartitionStart(time=1.0, groups=((1, 2),)),
    ],
}


class TestAdmissionAgreesWithTheEngine:
    @given(
        seed=st.integers(0, 10_000),
        partition_probability=st.sampled_from([0.5, 1.0]),
        flaky_link_count=st.integers(0, 3),
        corrupt_link_count=st.integers(0, 3),
        corrupt_probability=st.sampled_from([0.8, 1.0]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_plans(
        self, seed, partition_probability, flaky_link_count, corrupt_link_count, corrupt_probability
    ):
        n, t = 5, 2
        plan = FaultPlan.random(
            n=n, t=t, rng=RandomSource(seed, label="admission"), horizon=FAULT_HORIZON,
            recover_probability=0.5, partition_probability=partition_probability,
            flaky_link_count=flaky_link_count, corrupt_link_count=corrupt_link_count,
            corrupt_probability=corrupt_probability,
        )
        _assert_the_engine_ends_where_the_fold_does(plan, n, t)

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_plans_with_permanent_faults_and_ties(self, seed, data):
        n, t = 4, 1
        plan = FaultPlan.random(n=n, t=t, rng=RandomSource(seed, label="admission"), horizon=8.0)
        plan.extend(data.draw(st.lists(_topology_events(n), min_size=1, max_size=8)))
        _assert_the_engine_ends_where_the_fold_does(plan, n, t)

    @pytest.mark.parametrize("events", HAND_BUILT_ORDERINGS.values(), ids=HAND_BUILT_ORDERINGS)
    def test_hand_built_orderings(self, events):
        _assert_the_engine_ends_where_the_fold_does(FaultPlan(events), n=3, t=1)

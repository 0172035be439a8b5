"""Property-based tests (hypothesis) for the fault-plan engine.

Two invariants over *random* fault plans:

* determinism — same seed + same plan ⇒ identical run fingerprints; and
* stabilised leadership — after every fault of the plan has ended (random plans
  always heal their partitions and bound their link faults), the system settles
  to **one** leader per reachable component.  Post-quiescence there is exactly
  one component (the eventually-up processes), so two leaders inside it at the
  end of the run would be an Omega violation under churn.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import component_agreed_leaders, reachable_components
from repro.core.config import OmegaConfig
from repro.core.figure3 import Figure3Omega
from repro.simulation import FaultPlan, System, SystemConfig, UniformDelay
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

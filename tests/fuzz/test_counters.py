"""Counts belong to the process: every total survives recoveries.

The fuzzer's feedback loop and the perf reports read behavioural counters as
whole-run totals.  Each process keeps them in one counter registry that
``SimProcessShell.recover`` folds into the next incarnation, so the survival
tests here are generic — they cover whatever names the registries hold,
without listing them.  The wire-equality tests below them pin what individual
counts *mean*.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.service_metrics import record_run
from repro.fuzz.executor import FUZZ_BASELINE, harvest_features
from repro.service.clients import start_clients, start_workload, zipfian_workload
from repro.service.sharding import build_service
from repro.simulation.faults import Crash, FaultPlan, Recover

CRASH_AT, RECOVER_AT = 20.0, 40.0


def _loaded_service(spec, plan, stop_at):
    service = build_service(spec, fault_plan_factory=lambda shard: plan)
    clients = start_clients(
        service,
        num_clients=6,
        workload_factory=lambda i: zipfian_workload(num_keys=8),
        stop_at=stop_at,
        record_history=True,
    )
    return service, clients


def _service_with_restart(pid, **spec_kwargs):
    spec = dataclasses.replace(FUZZ_BASELINE, seed=3, **spec_kwargs)
    plan = FaultPlan([Crash(time=CRASH_AT, pid=pid), Recover(time=RECOVER_AT, pid=pid)])
    service, clients = _loaded_service(spec, plan, stop_at=70.0)
    return spec, service, clients


class TestEveryCountSurvivesARestart:
    @pytest.mark.parametrize("pid", [0, 1])  # the leader (star centre), a follower
    @pytest.mark.parametrize(
        "spec_kwargs",
        [{}, {"storage_write_cost": 0.0, "compaction_interval": 4, "leases": True}],
        ids=["bare", "storage+compaction+leases"],
    )
    def test_no_total_is_lower_after_the_restart_than_just_before_the_crash(
        self, pid, spec_kwargs
    ):
        spec, service, _ = _service_with_restart(pid, **spec_kwargs)
        service.run_until(CRASH_AT - 0.1)
        shell = service.systems[0].shells[pid]
        doomed = shell.algorithm
        before_process = dict(doomed.counters)
        before_service = service.counters()
        assert before_process  # the doomed incarnation did count something
        # Checked right after the recovery — before the new incarnation could
        # re-earn anything — and again at the end of the run.
        for checkpoint in (RECOVER_AT + 0.1, spec.horizon):
            service.run_until(checkpoint)
            assert shell.recoveries == 1 and shell.algorithm is not doomed
            for name, value in before_process.items():
                assert shell.algorithm.counters[name] >= value, name
            for name, value in service.counters().items():
                assert value >= before_service[name], name


#: Back-to-back restarts: (pid, uptime before the crash, downtime).  One
#: process down at a time keeps every plan inside the t=1 budget.
_restarts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=2.0, max_value=12.0),
        st.floats(min_value=3.0, max_value=15.0),
    ),
    min_size=1,
    max_size=3,
)


class TestTotalsAreMonotoneInVirtualTime:
    @given(restarts=_restarts, leases=st.booleans(), seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_under_random_restart_plans_with_storage(self, restarts, leases, seed):
        plan, clock = FaultPlan(), 5.0
        for pid, uptime, downtime in restarts:
            plan.add(Crash(time=clock + uptime, pid=pid))
            clock += uptime + downtime
            plan.add(Recover(time=clock, pid=pid))
        horizon = clock + 20.0
        spec = dataclasses.replace(
            FUZZ_BASELINE,
            seed=seed,
            horizon=horizon,
            stop_at=horizon,
            storage_write_cost=0.0,
            compaction_interval=4,
            leases=leases,
        )
        service, _ = _loaded_service(spec, plan, stop_at=horizon)
        previous = service.counters()
        while service.now < horizon:
            service.run_for(2.5)
            totals = service.counters()
            for name, value in previous.items():
                assert totals[name] >= value, (name, service.now)
            previous = totals
        assert sum(shell.recoveries for shell in service.systems[0].shells) == len(restarts)


class TestLeaderChanges:
    def test_the_feature_does_not_shrink_when_a_replica_recovers(self):
        # Read off the current incarnations' leader histories, this fell from
        # 3 to 2 when p2's new incarnation replaced the one that had seen the
        # changes; the count is the process's, not the incarnation's.
        spec = dataclasses.replace(FUZZ_BASELINE, seed=3)
        plan = FaultPlan(
            [
                Crash(time=40.0, pid=0),
                Recover(time=50.0, pid=0),
                Crash(time=100.0, pid=2),
                Recover(time=110.0, pid=2),
            ]
        )
        service = build_service(spec, fault_plan_factory=lambda shard: plan)
        clients = start_workload(service, spec, record_history=True)
        seen = []
        for checkpoint in (109.9, 110.0):
            service.run_until(checkpoint)
            features = harvest_features(record_run(service, clients), leases=False)
            seen.append(features["leader_changes"])
        assert seen[0] >= 3
        assert seen[1] >= seen[0]


class TestForwardCounters:
    """``forward_msgs_sent`` / ``forward_commands_sent``: the command path's
    cost, countable from ``counters()`` without the perfbench harness."""

    def test_counted_forwards_equal_the_forwards_on_the_wire(self):
        spec, service, _ = _service_with_restart(pid=1)
        service.run_until(spec.horizon)
        on_the_wire = sum(
            system.stats.sent_by_tag.get("FORWARD", 0) for system in service.systems
        )
        counters = service.counters()
        assert on_the_wire > 0
        assert counters["forward_msgs_sent"] == on_the_wire
        assert counters["forward_commands_sent"] >= counters["forward_msgs_sent"]


class TestBallotCounters:
    """``ballots_started`` / ``accept_rounds_started``: what phase 1 and
    phase 2 cost, countable from ``counters()`` and from the fuzzer's
    coverage features."""

    def _loaded_service_with_leader_restart(self):
        # The leader (pid 0, the star centre) restarts: its successor and then
        # its own new incarnation each start a ballot, on top of the first.
        spec, service, clients = _service_with_restart(pid=0)
        service.run_until(spec.horizon)
        return service, clients

    def test_counted_ballots_equal_the_prepares_on_the_wire(self):
        service, _ = self._loaded_service_with_leader_restart()
        sent = service.systems[0].stats.sent_by_tag
        counters = service.counters()
        peers = service.n - 1
        assert counters["ballots_started"] >= 2
        assert counters["ballots_started"] * peers == sent["PREPARE"]
        assert counters["accept_rounds_started"] * peers == sent["ACCEPT"]
        assert counters["accept_rounds_started"] > counters["ballots_started"]

    def test_both_are_fuzz_coverage_features_and_perf_counters(self):
        service, clients = self._loaded_service_with_leader_restart()
        features = harvest_features(record_run(service, clients), leases=False)
        perf = service.perf_counters()
        counters = service.counters()
        for name in ("ballots_started", "accept_rounds_started"):
            assert features[name] == perf[name] == counters[name] > 0

"""Counter-gap regressions: coverage features must survive recoveries.

The fuzzer's feedback loop reads behavioural counters as whole-run totals;
before this audit two classes of counters silently reset at every restart:

* the Omega layer's soft-state counters (``round_resyncs``,
  ``suspicions_sent``) were not harvested by
  ``OmegaConsensusStack.lifetime_counters`` at all, so a recovery threw the
  dying incarnation's totals away;
* the catch-up protocol had no counters (``catchup_polls_sent``,
  ``catchup_replies_sent`` are new with the fuzz subsystem).

These tests pin the harvest path end to end: the stack merges both layers,
``SimProcessShell.recover`` retires them, and the recovery-proof
``ShardedService._lifetime_counter`` totals never shrink mid-run.
"""

from repro.consensus.stack import OmegaConsensusStack
from repro.fuzz.executor import ScenarioSpec, build_service, harvest_features
from repro.service.clients import start_clients, zipfian_workload
from repro.simulation.faults import Crash, FaultPlan, Recover


class TestStackHarvest:
    def test_lifetime_counters_merge_omega_soft_state(self):
        stack = OmegaConsensusStack(pid=0, n=3, t=1)
        stack.omega.round_resyncs = 4
        stack.omega.suspicions_sent = 17
        stack.log.catchup_polls_sent = 3
        stack.log.catchup_replies_sent = 2
        counters = stack.lifetime_counters()
        assert counters["round_resyncs"] == 4
        assert counters["suspicions_sent"] == 17
        assert counters["catchup_polls_sent"] == 3
        assert counters["catchup_replies_sent"] == 2
        # The log-layer counters still ride along.
        assert "corrupt_rejected" in counters
        assert "ballots_started" in counters
        assert "accept_rounds_started" in counters


def _service_with_restart(run_to=None):
    spec = ScenarioSpec(seed=3)
    plan = FaultPlan([Crash(time=20.0, pid=1), Recover(time=26.0, pid=1)])
    service = build_service(spec, plan)
    service.run_until(run_to if run_to is not None else spec.horizon)
    return service


class TestRecoveryProofTotals:
    def test_recover_retires_omega_and_catchup_counters(self):
        service = _service_with_restart()
        shell = service.systems[0].shells[1]
        assert shell.recoveries == 1
        # The harvest ran and captured the merged counter set, including the
        # keys that used to be dropped.
        for key in (
            "round_resyncs",
            "suspicions_sent",
            "catchup_polls_sent",
            "catchup_replies_sent",
            "corrupt_rejected",
        ):
            assert key in shell.retired_counters
        # The dying incarnation polled for catch-up at least once while the
        # leader was proposing without it; those polls must not be lost.
        assert shell.retired_counters["suspicions_sent"] > 0

    def test_totals_are_monotone_across_the_restart(self):
        before = _service_with_restart(run_to=19.9)
        after = _service_with_restart()
        for accessor in ("round_resyncs", "catchup_polls", "catchup_replies"):
            assert getattr(after, accessor)() >= getattr(before, accessor)()
        assert after._lifetime_counter("suspicions_sent") > before._lifetime_counter(
            "suspicions_sent"
        )

    def test_total_equals_retired_plus_live(self):
        service = _service_with_restart()
        shard = service.systems[0]
        expected = 0
        for shell in shard.shells:
            expected += shell.retired_counters.get("catchup_polls_sent", 0)
            expected += shell.algorithm.lifetime_counters()["catchup_polls_sent"]
        assert service.catchup_polls() == expected
        assert service.catchup_polls() > 0


class TestForwardCounters:
    """``forward_msgs_sent`` / ``forward_commands_sent``: the command path's
    cost, countable from ``perf_counters()`` without the perfbench harness."""

    def _loaded_service_with_restart(self):
        service = _service_with_restart(run_to=0.0)
        start_clients(
            service,
            num_clients=6,
            workload_factory=lambda i: zipfian_workload(num_keys=8),
            stop_at=60.0,
        )
        service.run_until(ScenarioSpec(seed=3).horizon)
        return service

    def test_counted_forwards_equal_the_forwards_on_the_wire(self):
        service = self._loaded_service_with_restart()
        on_the_wire = sum(
            system.stats.sent_by_tag.get("FORWARD", 0) for system in service.systems
        )
        counters = service.perf_counters()
        assert on_the_wire > 0
        assert counters["forward_msgs_sent"] == on_the_wire
        assert counters["forward_commands_sent"] >= counters["forward_msgs_sent"]

    def test_forward_counters_are_retired_across_the_recovery(self):
        service = self._loaded_service_with_restart()
        shell = service.systems[0].shells[1]
        assert shell.recoveries == 1
        assert "forward_msgs_sent" in shell.retired_counters
        assert "forward_commands_sent" in shell.retired_counters


class TestBallotCounters:
    """``ballots_started`` / ``accept_rounds_started``: what phase 1 and
    phase 2 cost, countable from ``perf_counters()`` and from the fuzzer's
    coverage features."""

    def _loaded_service_with_leader_restart(self):
        # The leader (pid 0, the star centre) restarts: its successor and then
        # its own new incarnation each start a ballot, on top of the first.
        spec = ScenarioSpec(seed=3)
        plan = FaultPlan([Crash(time=20.0, pid=0), Recover(time=40.0, pid=0)])
        service = build_service(spec, plan)
        clients = start_clients(
            service,
            num_clients=6,
            workload_factory=lambda i: zipfian_workload(num_keys=8),
            stop_at=70.0,
        )
        service.run_until(spec.horizon)
        return service, clients

    def test_counted_ballots_equal_the_prepares_on_the_wire(self):
        service, _ = self._loaded_service_with_leader_restart()
        sent = service.systems[0].stats.sent_by_tag
        counters = service.perf_counters()
        peers = service.n - 1
        assert counters["ballots_started"] >= 2
        assert counters["ballots_started"] * peers == sent["PREPARE"]
        assert counters["accept_rounds_started"] * peers == sent["ACCEPT"]
        assert counters["accept_rounds_started"] > counters["ballots_started"]

    def test_ballot_counters_are_retired_across_the_recovery(self):
        service, _ = self._loaded_service_with_leader_restart()
        shell = service.systems[0].shells[0]
        assert shell.recoveries == 1
        assert shell.retired_counters["ballots_started"] >= 1
        assert shell.retired_counters["accept_rounds_started"] >= 1

    def test_both_are_fuzz_coverage_features(self):
        service, clients = self._loaded_service_with_leader_restart()
        features = harvest_features(service, clients)
        counters = service.perf_counters()
        assert features["ballots_started"] == counters["ballots_started"]
        assert features["accept_rounds_started"] == counters["accept_rounds_started"]

"""Unit tests for message corruption: checksums, garbling, rejection, stats."""

import pytest

from repro.channels.messages import Data
from repro.consensus.commands import Batch, Command, payload_intact
from repro.consensus.messages import (
    AcceptRequest,
    CatchUpReply,
    Forward,
    FrontierAdvert,
    Prepare,
    Promise,
)
from repro.core.config import OmegaConfig
from repro.core.messages import Alive
from repro.service.replica import ServiceReplica
from repro.simulation import (
    ConstantDelay,
    CorruptLink,
    FaultPlan,
    LinkHeal,
    System,
    SystemConfig,
    corrupt_message,
)
from repro.util.rng import RandomSource


def command(seq=1, key="k"):
    return Command.put("client-1", seq, key, "value")


class TestChecksums:
    def test_command_checksum_filled_and_verifies(self):
        cmd = command()
        assert cmd.checksum is not None
        assert cmd.verify()

    def test_equal_commands_have_equal_checksums(self):
        assert command() == command()
        assert command().checksum == command().checksum
        assert command(seq=2).checksum != command().checksum

    def test_tampered_command_fails_verification(self):
        import dataclasses

        cmd = command()
        tampered = dataclasses.replace(cmd, key="other", checksum=cmd.checksum)
        assert not tampered.verify()

    def test_verification_is_memoised_per_object(self):
        """verify() caches on the immutable object; a garbled copy is a new
        object with its own (failing) verdict."""
        cmd = command()
        assert cmd.verify() and cmd.verify()
        assert getattr(cmd, "_intact") is True
        import dataclasses

        tampered = dataclasses.replace(cmd, key="other", checksum=cmd.checksum)
        assert not tampered.verify()
        assert getattr(tampered, "_intact") is False
        assert cmd.verify()  # the original's cache is untouched
        batch = Batch(commands=(command(1), command(2)))
        assert batch.verify() and getattr(batch, "_intact") is True

    def test_batch_checksum_covers_members_and_order(self):
        import dataclasses

        batch = Batch(commands=(command(1), command(2)))
        assert batch.verify()
        swapped = Batch(
            commands=(batch.commands[1], batch.commands[0]),
            checksum=batch.checksum,
        )
        assert not swapped.verify()
        garbled_member = dataclasses.replace(
            batch.commands[0], key="evil", checksum=batch.commands[0].checksum
        )
        tampered = dataclasses.replace(
            batch,
            commands=(garbled_member, batch.commands[1]),
            checksum=batch.checksum,
        )
        assert not tampered.verify()


class TestCorruptMessage:
    def test_garbles_forward_and_preserves_stale_checksum(self):
        rng = RandomSource(1)
        message = Data(seq=1, inner=Forward(value=command()))
        tampered = corrupt_message(message, rng)
        assert tampered is not None
        assert payload_intact(message)  # the original is untouched
        assert not payload_intact(tampered)
        assert tampered.inner.value.checksum == command().checksum

    def test_garbles_batch_inside_accept(self):
        rng = RandomSource(2)
        batch = Batch(commands=(command(1), command(2)))
        message = AcceptRequest(instance=0, ballot=3, value=batch)
        tampered = corrupt_message(message, rng)
        assert tampered is not None
        assert not payload_intact(tampered)

    def test_garbles_catch_up_reply(self):
        rng = RandomSource(3)
        message = CatchUpReply(decisions=((0, command(1)), (1, "<noop>")))
        tampered = corrupt_message(message, rng)
        assert tampered is not None
        assert not payload_intact(tampered)

    @pytest.mark.parametrize(
        "rows",
        [
            {"accepted": ((3, 4, command(1)), (5, 4, "<noop>")), "decisions": ()},
            {"accepted": (), "decisions": ((0, "<noop>"), (1, command(2)))},
        ],
        ids=["accepted", "decisions"],
    )
    def test_garbles_promise_rows_and_keeps_their_positions(self, rows):
        message = Promise(ballot=7, **rows)
        assert payload_intact(message)
        tampered = corrupt_message(message, RandomSource(6))
        assert tampered is not None
        assert not payload_intact(tampered)
        for field, original in rows.items():
            garbled = getattr(tampered, field)
            assert [row[:-1] for row in garbled] == [row[:-1] for row in original]

    def test_control_traffic_is_not_corruptible(self):
        rng = RandomSource(4)
        alive = Alive(rn=7, susp_level=((0, 1), (1, 0)))
        assert corrupt_message(alive, rng) is None
        assert corrupt_message(FrontierAdvert(inner=alive, frontier=3), rng) is None
        # A Promise that reports nothing, and a Prepare, carry no payload either.
        assert corrupt_message(Promise(ballot=1, accepted=(), decisions=()), rng) is None
        assert corrupt_message(Prepare(ballot=1, from_position=0), rng) is None

    def test_opaque_legacy_values_are_not_corruptible(self):
        rng = RandomSource(5)
        assert corrupt_message(Forward(value="legacy-opaque"), rng) is None

    def test_payload_intact_on_clean_messages(self):
        assert payload_intact(Forward(value=command()))
        assert payload_intact(Alive(rn=1, susp_level=()))
        assert payload_intact(CatchUpReply(decisions=((0, command()),)))


class TestCorruptLinkEvents:
    def test_corrupt_links_builder(self):
        plan = FaultPlan.corrupt_links([(0, 1), (1, 0)], at=5.0, until=20.0)
        assert len(plan) == 2
        assert all(isinstance(event, CorruptLink) for event in plan.events)
        assert plan.has_topology_events()
        # Corruption never drops ALIVEs, so it does not need round resync...
        assert not plan.needs_round_resync()
        # ...but a recovery or partition alongside it still does.
        from repro.simulation import Crash, Recover

        mixed = FaultPlan.corrupt_links([(0, 1)], at=5.0)
        mixed.add(Crash(time=1.0, pid=0)).add(Recover(time=2.0, pid=0))
        assert mixed.needs_round_resync()

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            CorruptLink(time=1.0, sender=0, dest=1, probability=0.0)
        with pytest.raises(ValueError):
            CorruptLink(time=1.0, sender=0, dest=1, probability=1.5)
        with pytest.raises(ValueError):
            CorruptLink(time=5.0, sender=0, dest=1, until=5.0)

    def test_validate_checks_pids(self):
        with pytest.raises(ValueError):
            FaultPlan([CorruptLink(time=1.0, sender=9, dest=0)]).validate(n=3, t=1)

    def test_final_corrupt_links_only_permanent_full_corruption(self):
        permanent = FaultPlan([CorruptLink(time=1.0, sender=0, dest=1)])
        assert permanent.final_corrupt_links() == [(0, 1)]
        bounded = FaultPlan([CorruptLink(time=1.0, sender=0, dest=1, until=9.0)])
        assert bounded.final_corrupt_links() == []
        probabilistic = FaultPlan(
            [CorruptLink(time=1.0, sender=0, dest=1, probability=0.5)]
        )
        assert probabilistic.final_corrupt_links() == []
        healed = FaultPlan(
            [
                CorruptLink(time=1.0, sender=0, dest=1),
                LinkHeal(time=5.0, sender=0, dest=1),
            ]
        )
        assert healed.final_corrupt_links() == []

    def test_random_plan_can_draw_corrupt_links(self):
        plan = FaultPlan.random(
            n=4,
            t=1,
            rng=RandomSource(5, label="plan"),
            horizon=50.0,
            crash_count=0,
            corrupt_link_count=2,
        )
        corrupts = [e for e in plan.events if isinstance(e, CorruptLink)]
        assert len(corrupts) == 2
        assert all(e.until is not None for e in corrupts)

    def test_random_plan_links_respect_protect(self):
        """Regression: drawn lossy/corrupting links must not touch protected
        pids — degrading a protected process's links targets it like a crash."""
        from repro.simulation import LinkFault

        for seed in range(8):
            plan = FaultPlan.random(
                n=4,
                t=1,
                rng=RandomSource(seed, label="plan"),
                horizon=50.0,
                crash_count=0,
                flaky_link_count=3,
                corrupt_link_count=3,
                protect=[0],
            )
            for event in plan.events:
                if isinstance(event, (LinkFault, CorruptLink)):
                    assert 0 not in (event.sender, event.dest)

    def test_random_plan_partitions_respect_protect(self):
        """A drawn partition never names a protected pid nor isolates it alone."""
        from repro.simulation import PartitionStart

        for seed in range(12):
            plan = FaultPlan.random(
                n=4,
                t=1,
                rng=RandomSource(seed, label="plan"),
                horizon=50.0,
                crash_count=0,
                partition_probability=1.0,
                protect=[0],
            )
            starts = [e for e in plan.events if isinstance(e, PartitionStart)]
            assert starts
            for event in starts:
                named = {pid for group in event.groups for pid in group}
                assert 0 not in named
                # At least one unprotected peer shares the implicit side.
                assert len(named) <= 2  # of pids 1..3
        with pytest.raises(ValueError):  # a directed link needs 2 candidates
            FaultPlan.random(
                n=3,
                t=1,
                rng=RandomSource(1),
                horizon=50.0,
                crash_count=0,
                corrupt_link_count=1,
                protect=[0, 1],
            )

    def test_random_plan_defaults_draw_no_corruption(self):
        """Adding the corruption knobs must not shift earlier seeds' plans."""

        def draw(**kwargs):
            return FaultPlan.random(
                n=5,
                t=2,
                rng=RandomSource(7, label="plan"),
                horizon=100.0,
                partition_probability=1.0,
                flaky_link_count=2,
                **kwargs,
            )

        baseline = [e.describe() for e in draw().events]
        explicit = [e.describe() for e in draw(corrupt_link_count=0).events]
        assert baseline == explicit


def build_service_system(plan, seed=3, n=3, t=1):
    def factory(pid):
        return ServiceReplica(pid=pid, n=n, t=t, omega_config=OmegaConfig())

    return System(
        SystemConfig(n=n, t=t, seed=seed), factory, ConstantDelay(0.3), fault_plan=plan
    )


class TestEndToEndCorruption:
    def test_corrupted_deliveries_rejected_and_counted(self):
        # Always corrupt the follower -> leader link; the forwards crossing it
        # are tampered, delivered, and rejected at the boundary.
        plan = FaultPlan([CorruptLink(time=5.0, sender=1, dest=0)])
        system = build_service_system(plan)
        system.run_until(20.0)
        assert system.agreed_leader() == 0
        for seq in range(1, 6):
            system.shells[1].algorithm.submit_command(command(seq=seq, key=f"k{seq}"))
        system.run_until(120.0)
        stats = system.stats
        assert stats.total_corrupted > 0
        assert stats.corrupted_delivered > 0
        assert stats.corrupted_by_tag["FORWARD"] > 0
        # No recoveries in this run: every tampered delivery to an alive
        # replica shows up in exactly one replica-side rejection counter.
        rejected = sum(
            shell.algorithm.counters["corruption_rejections"] for shell in system.shells
        )
        assert rejected == stats.corrupted_delivered
        # The leader never saw an intact copy, so nothing may have been applied
        # anywhere — and certainly nothing divergent.
        digests = {
            shell.algorithm.state_machine.digest() for shell in system.shells
        }
        assert len(digests) == 1

    def test_bounded_corruption_window_converges_afterwards(self):
        plan = FaultPlan([CorruptLink(time=5.0, sender=1, dest=0, until=60.0)])
        system = build_service_system(plan)
        system.run_until(20.0)
        for seq in range(1, 6):
            system.shells[1].algorithm.submit_command(command(seq=seq, key=f"k{seq}"))
        system.run_until(200.0)
        # After the window closes, the follower's retried forwards get through
        # and every replica applies the commands identically.
        applied = [shell.algorithm.state_machine.applied for shell in system.shells]
        assert applied == [5, 5, 5]
        digests = {
            shell.algorithm.state_machine.digest() for shell in system.shells
        }
        assert len(digests) == 1
        assert system.stats.total_corrupted > 0

    def test_link_heal_clears_corruption(self):
        plan = FaultPlan(
            [
                CorruptLink(time=5.0, sender=0, dest=1),
                LinkHeal(time=30.0, sender=0, dest=1),
            ]
        )
        system = build_service_system(plan)
        system.run_until(29.0)
        link_state = system.link_state
        assert link_state is not None
        count_before = system.stats.total_corrupted
        assert count_before >= 0
        system.run_until(31.0)
        marker = command(seq=99, key="after-heal")
        assert link_state.maybe_corrupt(0, 1, Forward(value=marker)) is None

    def test_overlapping_corruption_windows_do_not_heal_early(self):
        plan = FaultPlan(
            [
                CorruptLink(time=5.0, sender=0, dest=1, until=20.0),
                CorruptLink(time=15.0, sender=0, dest=1, until=40.0),
            ]
        )
        system = build_service_system(plan)
        forward = Forward(value=command())
        system.run_until(25.0)  # first window expired inside the second
        assert system.link_state.maybe_corrupt(0, 1, forward) is not None
        system.run_until(41.0)
        assert system.link_state.maybe_corrupt(0, 1, forward) is None

    def test_corruption_run_is_deterministic(self):
        def run():
            plan = FaultPlan(
                [CorruptLink(time=5.0, sender=1, dest=0, probability=0.5, until=80.0)]
            )
            system = build_service_system(plan, seed=9)
            system.run_until(20.0)
            for seq in range(1, 6):
                system.shells[1].algorithm.submit_command(
                    command(seq=seq, key=f"k{seq}")
                )
            system.run_until(150.0)
            return {
                "executed": system.scheduler.executed,
                "stats": system.stats.as_dict(),
                "digests": [
                    shell.algorithm.state_machine.digest()
                    for shell in system.shells
                ],
            }

        first = run()
        assert first == run()
        assert first["stats"]["total_corrupted"] > 0


class TestScenarioAdmission:
    def test_permanent_corruption_of_protected_link_is_a_violation(self):
        from repro.assumptions.scenarios import IntermittentRotatingStarScenario

        scenario = IntermittentRotatingStarScenario(n=3, t=1, center=0, seed=1)
        permanent = FaultPlan([CorruptLink(time=5.0, sender=0, dest=1)])
        violations = scenario.fault_plan_violations(permanent)
        assert any("corrupts payloads" in v for v in violations)
        assert not scenario.admits_fault_plan(permanent)

    def test_bounded_or_unprotected_corruption_is_admitted(self):
        from repro.assumptions.scenarios import IntermittentRotatingStarScenario

        scenario = IntermittentRotatingStarScenario(n=3, t=1, center=0, seed=1)
        bounded = FaultPlan([CorruptLink(time=5.0, sender=0, dest=1, until=50.0)])
        assert scenario.admits_fault_plan(bounded)
        unprotected = FaultPlan([CorruptLink(time=5.0, sender=1, dest=2)])
        assert scenario.admits_fault_plan(unprotected)

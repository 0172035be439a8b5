"""Integration test for the fair-lossy + reliable-channel extension (footnote 2).

The Figure 3 algorithm is run unchanged on top of the acknowledge-and-retransmit
channel, itself running over links that drop a substantial fraction of messages.
Eventual leadership must still hold, and the channel must actually be doing work
(retransmissions happen, duplicates are suppressed).
"""

from repro.assumptions import EventualTSourceScenario
from repro.channels import BernoulliLossModel, ReliableChannel
from repro.core import Figure3Omega, OmegaConfig
from repro.simulation import System, SystemConfig


def build_lossy_system(loss_probability, seed=0, n=5, t=2):
    scenario = EventualTSourceScenario(n=n, t=t, center=1, seed=seed)
    lossy = BernoulliLossModel(
        scenario.build_delay_model(), loss_probability=loss_probability, seed=seed
    )
    omega_config = OmegaConfig(alive_period=1.0, timeout_unit=1.0)

    def factory(pid):
        return ReliableChannel(
            Figure3Omega(pid=pid, n=n, t=t, config=omega_config),
            retransmit_period=2.0,
        )

    return System(
        config=SystemConfig(n=n, t=t, seed=seed),
        process_factory=factory,
        delay_model=lossy,
    )


class TestReliableChannelOverLossyLinks:
    def test_leader_elected_despite_heavy_loss(self):
        system = build_lossy_system(loss_probability=0.25, seed=500)
        system.run_until(400.0)
        leaders = {
            shell.pid: shell.algorithm.inner.leader() for shell in system.alive_shells()
        }
        assert len(set(leaders.values())) == 1, f"no agreement: {leaders}"

    def test_channel_actually_retransmits_and_deduplicates(self):
        system = build_lossy_system(loss_probability=0.25, seed=500)
        system.run_until(200.0)
        retransmissions = sum(
            shell.algorithm.retransmissions for shell in system.shells
        )
        duplicates = sum(
            shell.algorithm.duplicates_dropped for shell in system.shells
        )
        assert retransmissions > 0
        assert duplicates > 0
        assert system.stats.total_dropped > 0

    def test_no_loss_means_no_retransmission_work_is_wasted(self):
        system = build_lossy_system(loss_probability=0.0, seed=501)
        system.run_until(100.0)
        # With no loss the only retransmissions are for messages whose ack was still
        # in flight; duplicates at the receiver are then expected but bounded.
        duplicates = sum(shell.algorithm.duplicates_dropped for shell in system.shells)
        delivered = system.stats.total_delivered
        assert duplicates < delivered

"""Unit tests for the reliable, non-FIFO network."""

import pytest

from repro.consensus.messages import FrontierAdvert
from repro.core.messages import Alive
from repro.simulation.delays import ConstantDelay, DelayModel
from repro.simulation.network import Network, NetworkStats
from repro.simulation.scheduler import EventScheduler


class _SequenceDelay(DelayModel):
    """Returns delays from a fixed list (then repeats the last one)."""

    def __init__(self, delays):
        self.delays = list(delays)
        self.index = 0

    def delay(self, sender, dest, tag, round_number):
        value = self.delays[min(self.index, len(self.delays) - 1)]
        self.index += 1
        return value


class _Endpoint:
    def __init__(self):
        self.received = []
        self.alive = True

    def deliver(self, sender, message):
        self.received.append((sender, message))

    def is_alive(self):
        return self.alive


def make_network(delay_model):
    scheduler = EventScheduler()
    network = Network(scheduler, delay_model)
    endpoints = {}
    for pid in range(3):
        endpoint = _Endpoint()
        endpoints[pid] = endpoint
        network.register(pid, endpoint.deliver, endpoint.is_alive)
    return scheduler, network, endpoints


def alive(rn=1):
    return Alive.make(rn, {0: 0, 1: 0, 2: 0})


class TestDelivery:
    def test_message_delivered_after_delay(self):
        scheduler, network, endpoints = make_network(ConstantDelay(2.0))
        network.send(0, 1, alive())
        scheduler.run_until(1.9)
        assert endpoints[1].received == []
        scheduler.run_until(2.1)
        assert len(endpoints[1].received) == 1
        sender, message = endpoints[1].received[0]
        assert sender == 0
        assert isinstance(message, Alive)

    def test_no_loss_no_duplication(self):
        scheduler, network, endpoints = make_network(ConstantDelay(1.0))
        for index in range(20):
            network.send(0, 1, alive(rn=index + 1))
        scheduler.run_until(10.0)
        assert len(endpoints[1].received) == 20
        rounds = [message.rn for _, message in endpoints[1].received]
        assert sorted(rounds) == list(range(1, 21))

    def test_non_fifo_reordering(self):
        scheduler, network, endpoints = make_network(_SequenceDelay([5.0, 1.0]))
        network.send(0, 1, alive(rn=1))
        network.send(0, 1, alive(rn=2))
        scheduler.run_until(10.0)
        received_rounds = [message.rn for _, message in endpoints[1].received]
        assert received_rounds == [2, 1]

    def test_unknown_destination_rejected(self):
        _, network, _ = make_network(ConstantDelay(1.0))
        with pytest.raises(KeyError):
            network.send(0, 99, alive())

    def test_duplicate_registration_rejected(self):
        _, network, _ = make_network(ConstantDelay(1.0))
        with pytest.raises(ValueError):
            network.register(0, lambda s, m: None, lambda: True)

    def test_negative_delay_rejected(self):
        scheduler, network, _ = make_network(_SequenceDelay([-1.0]))
        with pytest.raises(ValueError, match="negative"):
            network.send(0, 1, alive())


class TestCrashSemantics:
    def test_message_to_crashed_process_dropped_at_delivery(self):
        scheduler, network, endpoints = make_network(ConstantDelay(2.0))
        network.send(0, 1, alive())
        endpoints[1].alive = False
        scheduler.run_until(5.0)
        assert endpoints[1].received == []
        assert network.stats.total_dropped == 1

    def test_message_from_crashed_sender_still_delivered(self):
        # A message handed to the network before the sender crashed is in flight and
        # is delivered: the crash only stops the sender's future steps.
        scheduler, network, endpoints = make_network(ConstantDelay(2.0))
        network.send(0, 1, alive())
        endpoints[0].alive = False
        scheduler.run_until(5.0)
        assert len(endpoints[1].received) == 1


class TestStats:
    def test_counts_by_tag(self):
        scheduler, network, _ = make_network(ConstantDelay(1.0))
        network.send(0, 1, alive())
        network.send(1, 2, alive())
        scheduler.run_until(2.0)
        assert network.stats.sent_by_tag["ALIVE"] == 2
        assert network.stats.delivered_by_tag["ALIVE"] == 2
        assert network.stats.total_sent == 2
        assert network.stats.total_delivered == 2

    def test_mean_and_max_delay(self):
        scheduler, network, _ = make_network(_SequenceDelay([1.0, 3.0]))
        network.send(0, 1, alive())
        network.send(0, 1, alive())
        scheduler.run_until(5.0)
        assert network.stats.mean_delay == pytest.approx(2.0)
        assert network.stats.max_delay == pytest.approx(3.0)

    def test_wrapped_messages_counted_under_inner_tag(self):
        scheduler, network, _ = make_network(ConstantDelay(1.0))
        network.send(0, 1, FrontierAdvert(inner=alive(), frontier=0))
        scheduler.run_until(2.0)
        assert network.stats.sent_by_tag["ALIVE"] == 1

    def test_as_dict_summary(self):
        scheduler, network, _ = make_network(ConstantDelay(1.0))
        network.send(0, 1, alive())
        scheduler.run_until(2.0)
        summary = network.stats.as_dict()
        assert summary["total_sent"] == 1
        assert summary["total_delivered"] == 1
        assert summary["total_dropped"] == 0

    def test_empty_stats(self):
        stats = NetworkStats()
        assert stats.mean_delay == 0.0
        assert stats.total_sent == 0

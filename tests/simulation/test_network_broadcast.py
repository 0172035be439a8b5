"""Tests for the native ``Network.broadcast`` fan-out.

The contract: ``broadcast(sender, dests, message)`` is semantically identical to a
loop of ``send`` calls over *dests* — one independent delay decision per
destination (in destination order), per-destination drops, crashed-destination
discard at delivery time, and identical stats — while computing the envelope walk
(innermost tag / round number) only once.
"""

import pytest

from repro.consensus.messages import FrontierAdvert
from repro.core.messages import Alive
from repro.simulation.delays import ConstantDelay, DelayModel, MessageContext, UniformDelay
from repro.simulation.network import Network
from repro.simulation.scheduler import EventScheduler
from repro.util.rng import RandomSource


class _SequenceDelay(DelayModel):
    """Returns delays from a fixed list (then repeats the last one)."""

    def __init__(self, delays):
        self.delays = list(delays)
        self.index = 0

    def delay(self, ctx: MessageContext):
        value = self.delays[min(self.index, len(self.delays) - 1)]
        self.index += 1
        return value


class _DropFor(DelayModel):
    """Drops messages to the given destinations, constant delay otherwise."""

    def __init__(self, drop_dests, value=1.0):
        self.drop_dests = set(drop_dests)
        self.value = value

    def delay(self, ctx: MessageContext):
        if ctx.dest in self.drop_dests:
            return None
        return self.value


class _Endpoint:
    def __init__(self):
        self.received = []
        self.alive = True

    def deliver(self, sender, message):
        self.received.append((sender, message))

    def is_alive(self):
        return self.alive


def make_network(delay_model, n=4):
    scheduler = EventScheduler()
    network = Network(scheduler, delay_model)
    endpoints = {}
    for pid in range(n):
        endpoint = _Endpoint()
        endpoints[pid] = endpoint
        network.register(pid, endpoint.deliver, endpoint.is_alive)
    return scheduler, network, endpoints


def alive(rn=1, n=4):
    return Alive.make(rn, {pid: 0 for pid in range(n)})


class TestFanOut:
    def test_delivers_to_every_destination(self):
        scheduler, network, endpoints = make_network(ConstantDelay(1.0))
        network.broadcast(0, (1, 2, 3), alive())
        scheduler.run_until(2.0)
        for dest in (1, 2, 3):
            assert len(endpoints[dest].received) == 1
        assert endpoints[0].received == []

    def test_same_message_object_shared_across_destinations(self):
        scheduler, network, endpoints = make_network(ConstantDelay(1.0))
        message = alive()
        network.broadcast(0, (1, 2, 3), message)
        scheduler.run_until(2.0)
        for dest in (1, 2, 3):
            assert endpoints[dest].received[0][1] is message

    def test_per_destination_independent_delays_in_dest_order(self):
        scheduler, network, _ = make_network(_SequenceDelay([5.0, 1.0, 3.0]))
        envelopes = network.broadcast(0, (1, 2, 3), alive())
        # One delay decision per destination, drawn in destination order.
        assert [env.deliver_time for env in envelopes] == [5.0, 1.0, 3.0]
        assert [env.dest for env in envelopes] == [1, 2, 3]

    def test_broadcast_reorders_like_independent_sends(self):
        scheduler, network, endpoints = make_network(_SequenceDelay([5.0, 1.0]))
        network.broadcast(0, (1, 2), alive())
        scheduler.run_until(2.0)
        assert endpoints[1].received == []
        assert len(endpoints[2].received) == 1
        scheduler.run_until(6.0)
        assert len(endpoints[1].received) == 1

    def test_empty_destination_list_leaves_stats_untouched(self):
        # Parity with a loop of zero sends: no zero-count tag/sender entries.
        _, network, _ = make_network(ConstantDelay(1.0))
        assert network.broadcast(0, (), alive()) == []
        assert network.stats.as_dict()["sent"] == {}
        assert network.stats.total_sent == 0

    def test_unknown_destination_rejected_before_any_send(self):
        _, network, _ = make_network(ConstantDelay(1.0))
        with pytest.raises(KeyError):
            network.broadcast(0, (1, 99), alive())
        assert network.stats.total_sent == 0

    def test_envelopes_carry_precomputed_inner_tag(self):
        _, network, _ = make_network(ConstantDelay(1.0))
        envelopes = network.broadcast(0, (1, 2), FrontierAdvert(inner=alive(), frontier=0))
        assert all(env.tag == "ALIVE" for env in envelopes)


class TestDropsAndCrashes:
    def test_per_destination_drops(self):
        scheduler, network, endpoints = make_network(_DropFor({2}))
        envelopes = network.broadcast(0, (1, 2, 3), alive())
        assert envelopes[0] is not None
        assert envelopes[1] is None
        assert envelopes[2] is not None
        scheduler.run_until(2.0)
        assert len(endpoints[1].received) == 1
        assert endpoints[2].received == []
        assert len(endpoints[3].received) == 1
        assert network.stats.total_sent == 3
        assert network.stats.total_dropped == 1
        assert network.stats.total_delivered == 2

    def test_crashed_destination_discarded_at_delivery(self):
        scheduler, network, endpoints = make_network(ConstantDelay(2.0))
        network.broadcast(0, (1, 2), alive())
        endpoints[1].alive = False
        scheduler.run_until(5.0)
        assert endpoints[1].received == []
        assert len(endpoints[2].received) == 1
        assert network.stats.total_dropped == 1
        assert network.stats.dropped_by_tag["ALIVE"] == 1


class TestStatsParity:
    def _run(self, use_broadcast: bool):
        delay_model = UniformDelay(0.5, 3.0, RandomSource(7, label="parity"))
        scheduler, network, endpoints = make_network(delay_model)
        message = FrontierAdvert(inner=alive(rn=3), frontier=0)
        if use_broadcast:
            network.broadcast(0, (1, 2, 3), message)
        else:
            for dest in (1, 2, 3):
                network.send(0, dest, message)
        scheduler.run_until(10.0)
        deliveries = {
            dest: [m for _, m in endpoints[dest].received] for dest in (1, 2, 3)
        }
        return network.stats.as_dict(), deliveries

    def test_broadcast_matches_loop_of_sends(self):
        """Same seed: identical stats (incl. delays) and identical deliveries."""
        broadcast_stats, broadcast_deliveries = self._run(use_broadcast=True)
        loop_stats, loop_deliveries = self._run(use_broadcast=False)
        assert broadcast_stats == loop_stats
        assert broadcast_deliveries == loop_deliveries

    def test_sent_counted_under_inner_tag_per_destination(self):
        stats, _ = self._run(use_broadcast=True)
        assert stats["sent"] == {"ALIVE": 3}


class TestRegisteredIds:
    def test_registered_ids_sorted_and_isolated(self):
        scheduler = EventScheduler()
        network = Network(scheduler, ConstantDelay(1.0))
        for pid in (2, 0, 1):
            network.register(pid, lambda s, m: None, lambda: True)
        ids = network.registered_ids
        assert ids == [0, 1, 2]
        ids.append(99)  # the cached list must not be mutable from outside
        assert network.registered_ids == [0, 1, 2]

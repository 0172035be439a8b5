"""Unit tests for envelope walking: innermost tag and round number."""

from repro.channels.messages import Data
from repro.consensus.messages import FrontierAdvert
from repro.core.composition import unwrap_round_number, unwrap_tag
from repro.core.interfaces import Message
from repro.core.messages import Alive


class TestUnwrapping:
    def test_plain_message(self):
        message = Alive.make(7, {0: 0})
        assert unwrap_round_number(message) == 7
        assert unwrap_tag(message) == "ALIVE"

    def test_wrapped_message(self):
        message = FrontierAdvert(inner=Alive.make(3, {0: 0}), frontier=12)
        assert unwrap_round_number(message) == 3
        assert unwrap_tag(message) == "ALIVE"

    def test_reliable_channel_envelope(self):
        message = Data(seq=9, inner=Alive.make(4, {0: 0}))
        assert unwrap_round_number(message) == 4
        assert unwrap_tag(message) == "ALIVE"

    def test_doubly_wrapped(self):
        advert = FrontierAdvert(inner=Alive.make(6, {0: 0}), frontier=0)
        message = Data(seq=1, inner=advert)
        assert unwrap_round_number(message) == 6
        assert unwrap_tag(message) == "ALIVE"

    def test_message_without_round_number(self):
        class Plain(Message):
            pass

        assert unwrap_round_number(Plain()) is None

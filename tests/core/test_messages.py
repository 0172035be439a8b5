"""Unit tests for the protocol messages."""

import dataclasses

import pytest

from repro.core.messages import Alive, Suspicion


class TestAlive:
    def test_make_sorts_and_freezes_levels(self):
        message = Alive.make(3, {2: 5, 0: 1, 1: 0})
        assert message.rn == 3
        assert message.susp_level == ((0, 1), (1, 0), (2, 5))

    def test_susp_level_dict_roundtrip(self):
        levels = {0: 1, 1: 2, 2: 3}
        assert Alive.make(1, levels).susp_level_dict() == levels

    def test_tag(self):
        assert Alive.make(1, {0: 0}).tag == "ALIVE"

    def test_immutable(self):
        message = Alive.make(1, {0: 0})
        with pytest.raises(dataclasses.FrozenInstanceError):
            message.rn = 2

    def test_snapshot_is_independent_of_source_dict(self):
        levels = {0: 0, 1: 0}
        message = Alive.make(1, levels)
        levels[0] = 99
        assert message.susp_level_dict()[0] == 0

    def test_equality_by_value(self):
        assert Alive.make(1, {0: 0}) == Alive.make(1, {0: 0})


class TestSuspicion:
    def test_make_freezes_suspects(self):
        message = Suspicion.make(4, [2, 1, 2])
        assert message.rn == 4
        assert message.suspects == frozenset({1, 2})

    def test_tag(self):
        assert Suspicion.make(1, []).tag == "SUSPICION"

    def test_empty_suspect_set_allowed(self):
        assert Suspicion.make(1, []).suspects == frozenset()

    def test_hashable(self):
        assert hash(Suspicion.make(1, [2])) == hash(Suspicion.make(1, [2]))

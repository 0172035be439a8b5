"""Unit tests for the background sender-behaviour policies."""

import pytest

from repro.assumptions.star import (
    AlwaysFastPolicy,
    EscalatingPersecutionPolicy,
    FixedSlowSetPolicy,
    RandomSlowPolicy,
)


class TestAlwaysFast:
    def test_never_slow(self):
        policy = AlwaysFastPolicy()
        assert not any(policy.is_slow(sender, rn) for sender in range(5) for rn in range(1, 20))


class TestFixedSlowSet:
    def test_only_listed_senders_slow(self):
        policy = FixedSlowSetPolicy([1, 3])
        assert policy.is_slow(1, 5) and policy.is_slow(3, 99)
        assert not policy.is_slow(0, 5) and not policy.is_slow(2, 5)

    def test_describe(self):
        assert "1" in FixedSlowSetPolicy([1]).describe()


class TestRandomSlow:
    def test_probability_bounds_validated(self):
        with pytest.raises(ValueError):
            RandomSlowPolicy(p_slow=1.5, seed=0)

    def test_deterministic_and_cached(self):
        policy = RandomSlowPolicy(p_slow=0.5, seed=3)
        values = [(sender, rn, policy.is_slow(sender, rn)) for sender in range(4) for rn in range(1, 30)]
        again = [(sender, rn, policy.is_slow(sender, rn)) for sender in range(4) for rn in range(1, 30)]
        assert values == again

    def test_same_seed_same_classification(self):
        a = RandomSlowPolicy(p_slow=0.4, seed=7)
        b = RandomSlowPolicy(p_slow=0.4, seed=7)
        assert [a.is_slow(2, rn) for rn in range(1, 50)] == [
            b.is_slow(2, rn) for rn in range(1, 50)
        ]

    def test_exempt_senders_never_slow(self):
        policy = RandomSlowPolicy(p_slow=1.0, seed=1, exempt=[2])
        assert not any(policy.is_slow(2, rn) for rn in range(1, 50))
        assert all(policy.is_slow(0, rn) for rn in range(1, 50))

    def test_rate_roughly_matches_probability(self):
        policy = RandomSlowPolicy(p_slow=0.3, seed=11)
        samples = [policy.is_slow(sender, rn) for sender in range(6) for rn in range(1, 200)]
        rate = sum(samples) / len(samples)
        assert 0.2 < rate < 0.4

    def test_memo_holds_one_entry_per_sender_and_answers_like_a_fresh_policy(self):
        policy = RandomSlowPolicy(p_slow=0.5, seed=5)
        # Broadcast-shaped queries: each (sender, rn) asked once per
        # destination, senders interleaved, rounds revisited out of order.
        queries = [(sender, rn) for rn in range(1, 300) for sender in range(4)] * 2
        queries += [(sender, rn) for rn in (250, 3, 250) for sender in range(4)]
        answers = []
        for sender, rn in queries:
            answers += [policy.is_slow(sender, rn) for _ in range(3)]
        fresh = [
            RandomSlowPolicy(p_slow=0.5, seed=5).is_slow(sender, rn)
            for sender, rn in queries
            for _ in range(3)
        ]
        assert answers == fresh
        assert len(policy._last) == 4


class TestEscalatingPersecution:
    def test_requires_victims(self):
        with pytest.raises(ValueError):
            EscalatingPersecutionPolicy([])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EscalatingPersecutionPolicy([0], initial_stretch=0)
        with pytest.raises(ValueError):
            EscalatingPersecutionPolicy([0], growth=0.5)

    def test_exactly_one_victim_per_round(self):
        policy = EscalatingPersecutionPolicy([0, 1, 2], initial_stretch=3, growth=2.0)
        for rn in range(1, 100):
            slow = [sender for sender in range(3) if policy.is_slow(sender, rn)]
            assert len(slow) == 1
            assert slow[0] == policy.victim_for_round(rn)

    def test_victims_rotate(self):
        policy = EscalatingPersecutionPolicy([0, 1, 2], initial_stretch=2, growth=1.0)
        victims = [policy.victim_for_round(rn) for rn in range(1, 7)]
        assert victims == [0, 0, 1, 1, 2, 2]

    def test_stretches_grow(self):
        policy = EscalatingPersecutionPolicy([0, 1], initial_stretch=2, growth=2.0)
        # First rotation: stretches of 2; second rotation: stretches of 4.
        assert [policy.victim_for_round(rn) for rn in (1, 2)] == [0, 0]
        assert [policy.victim_for_round(rn) for rn in (3, 4)] == [1, 1]
        assert [policy.victim_for_round(rn) for rn in (5, 6, 7, 8)] == [0, 0, 0, 0]

    def test_every_victim_eventually_persecuted_for_long_stretches(self):
        policy = EscalatingPersecutionPolicy([0, 1, 2, 3], initial_stretch=2, growth=1.5)
        longest = {victim: 0 for victim in range(4)}
        current_victim, run_length = None, 0
        for rn in range(1, 600):
            victim = policy.victim_for_round(rn)
            if victim == current_victim:
                run_length += 1
            else:
                current_victim, run_length = victim, 1
            longest[victim] = max(longest[victim], run_length)
        assert all(length >= 8 for length in longest.values())

    def test_rounds_below_one_rejected_or_fast(self):
        policy = EscalatingPersecutionPolicy([0])
        assert policy.is_slow(0, 0) is False
        with pytest.raises(ValueError):
            policy.victim_for_round(0)

    def test_non_victim_never_slow(self):
        policy = EscalatingPersecutionPolicy([1, 2])
        assert not any(policy.is_slow(0, rn) for rn in range(1, 100))

    def test_max_stretch_cap(self):
        policy = EscalatingPersecutionPolicy(
            [0], initial_stretch=4, growth=10.0, max_stretch=8
        )
        # After the cap is reached, stretches stay at 8 rounds.
        policy.victim_for_round(200)
        lengths = [last - first + 1 for first, last, _ in policy._stretches]
        assert max(lengths) <= 8

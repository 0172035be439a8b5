"""Unit tests for repro.util.rng."""

from hypothesis import given, strategies as st

from repro.util.rng import RandomSource, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "network") == derive_seed(42, "network")

    def test_label_changes_seed(self):
        assert derive_seed(42, "network") != derive_seed(42, "process")

    def test_parent_changes_seed(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=20))
    def test_result_in_range(self, seed, label):
        value = derive_seed(seed, label)
        assert 0 <= value < 2**63


class TestRandomSource:
    def test_same_seed_same_sequence(self):
        a = RandomSource(7, label="x")
        b = RandomSource(7, label="x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_differ(self):
        a = RandomSource(7, label="x")
        b = RandomSource(7, label="y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_child_streams_are_independent_of_draw_order(self):
        parent = RandomSource(3, label="root")
        child_a_first = parent.child("a").random()
        parent2 = RandomSource(3, label="root")
        # Drawing from another child first must not change child "a"'s stream.
        parent2.child("b").random()
        child_a_second = parent2.child("a").random()
        assert child_a_first == child_a_second

    def test_uniform_bounds(self):
        rng = RandomSource(1)
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value <= 3.0

    def test_sample_returns_distinct_items(self):
        rng = RandomSource(1)
        picked = rng.sample(list(range(10)), 4)
        assert len(picked) == 4
        assert len(set(picked)) == 4

    def test_randint_bounds(self):
        rng = RandomSource(5)
        values = {rng.randint(1, 3) for _ in range(50)}
        assert values <= {1, 2, 3}

    def test_choice_picks_member(self):
        rng = RandomSource(5)
        assert rng.choice(["a", "b"]) in ("a", "b")



class TestPerKeyDraws:
    """``child_random`` / ``child_sample`` are ``child(...).random()`` /
    ``child(...).sample(...)`` without building the child."""

    SEEDS = [0, 7, 2**40 + 3, 2**63 + 5, -12]
    SOURCE_LABELS = [None, "slow", "it's", 'say "hi"']
    KEYS = [
        (),
        (3, 17),
        (2**33 + 1, -4),
        ("points", 9),
        ("q'uote", 'd"q', 5),
        (None, True, 2.5),
    ]

    def test_a_draw_equals_the_childs_first_draw(self):
        for seed in self.SEEDS:
            for label in self.SOURCE_LABELS:
                source = RandomSource(seed, label=label)
                for key in self.KEYS:
                    expected = RandomSource(seed, label=label).child(*key)
                    assert source.child_random(*key) == expected.random(), (seed, label, key)

    def test_a_sample_equals_the_childs_sample(self):
        items = list(range(11))
        for seed in self.SEEDS:
            for label in self.SOURCE_LABELS:
                source = RandomSource(seed, label=label)
                for key in self.KEYS:
                    expected = source.child(*key).sample(items, 4)
                    assert source.child_sample(items, 4, *key) == expected, (seed, label, key)

    def test_per_key_draws_leave_the_sequential_stream_alone(self):
        drawn = RandomSource(9, label="x")
        fresh = RandomSource(9, label="x")
        first = drawn.random()
        drawn.child_random(1, 2)
        drawn.child_sample([1, 2, 3], 2, "points", 4)
        assert [first, drawn.random(), drawn.randint(0, 10**9)] == [
            fresh.random(),
            fresh.random(),
            fresh.randint(0, 10**9),
        ]

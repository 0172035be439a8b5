"""Unit tests for the per-process state containers."""

import pytest

from repro.core.state import RoundRecords, SuspicionLevels, lexicographic_min


class TestSuspicionLevels:
    def test_initialised_to_zero(self):
        levels = SuspicionLevels([0, 1, 2])
        assert levels.as_dict() == {0: 0, 1: 0, 2: 0}
        assert levels.minimum() == 0
        assert levels.maximum() == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SuspicionLevels([])

    def test_increase_and_max_ever(self):
        levels = SuspicionLevels([0, 1])
        assert levels.increase(1) == 1
        assert levels.increase(1) == 2
        assert levels[1] == 2
        assert levels.max_ever == 2

    def test_merge_is_elementwise_max(self):
        levels = SuspicionLevels([0, 1, 2])
        levels.increase(0)
        levels.merge({0: 0, 1: 3, 2: 1})
        assert levels.as_dict() == {0: 1, 1: 3, 2: 1}

    def test_merge_never_decreases(self):
        levels = SuspicionLevels([0, 1])
        levels.increase(0)
        levels.increase(0)
        levels.merge({0: 1, 1: 0})
        assert levels[0] == 2

    def test_merge_unknown_id_rejected(self):
        levels = SuspicionLevels([0, 1])
        with pytest.raises(KeyError):
            levels.merge({5: 1})

    def test_least_suspected_prefers_lower_level_then_lower_id(self):
        levels = SuspicionLevels([0, 1, 2])
        levels.increase(0)
        assert levels.least_suspected() == 1
        levels.increase(1)
        levels.increase(1)
        # 0 has level 1, 1 has level 2, 2 has level 0 -> 2 wins
        assert levels.least_suspected() == 2

    def test_least_suspected_id_tiebreak(self):
        levels = SuspicionLevels([3, 1, 2])
        assert levels.least_suspected() == 1

    def test_spread(self):
        levels = SuspicionLevels([0, 1])
        assert levels.spread() == 0
        levels.increase(0)
        assert levels.spread() == 1

    def test_snapshot_matches_alive_format(self):
        levels = SuspicionLevels([1, 0])
        levels.increase(1)
        assert levels.snapshot() == ((0, 0), (1, 1))

    def test_contains_and_len(self):
        levels = SuspicionLevels([0, 1, 2])
        assert 1 in levels
        assert 9 not in levels
        assert len(levels) == 3

    def test_process_ids_sorted(self):
        assert SuspicionLevels([2, 0, 1]).process_ids() == [0, 1, 2]


class TestRoundRecords:
    def test_rec_from_initialised_with_owner(self):
        records = RoundRecords(owner=3)
        assert records.rec_from(7) == {3}
        assert records.reception_count(7) == 1

    def test_add_reception(self):
        records = RoundRecords(owner=0)
        records.add_reception(2, 1)
        records.add_reception(2, 4)
        assert records.rec_from(2) == {0, 1, 4}
        assert records.reception_count(2) == 3

    def test_suspicion_counting(self):
        records = RoundRecords(owner=0)
        assert records.suspicion_count(5, 2) == 0
        assert records.add_suspicion(5, 2) == 1
        assert records.add_suspicion(5, 2) == 2
        assert records.suspicion_count(5, 2) == 2

    def test_window_satisfied_when_all_rounds_reach_threshold(self):
        records = RoundRecords(owner=0)
        for rn in (3, 4, 5):
            for _ in range(2):
                records.add_suspicion(rn, 1)
        assert records.window_satisfied(rn=5, suspect=1, window_start=3, threshold=2)

    def test_window_not_satisfied_when_one_round_below_threshold(self):
        records = RoundRecords(owner=0)
        for rn in (3, 5):
            for _ in range(2):
                records.add_suspicion(rn, 1)
        records.add_suspicion(4, 1)  # only one suspicion at round 4
        assert not records.window_satisfied(rn=5, suspect=1, window_start=3, threshold=2)

    def test_window_skips_nonexistent_rounds_below_one(self):
        records = RoundRecords(owner=0)
        records.add_suspicion(1, 2)
        records.add_suspicion(1, 2)
        # window_start is negative: rounds < 1 do not exist and are skipped.
        assert records.window_satisfied(rn=1, suspect=2, window_start=-5, threshold=2)

    def test_window_ignores_current_round_counter(self):
        # The caller checks the current round itself; the window test only looks at
        # strictly earlier rounds.
        records = RoundRecords(owner=0)
        records.add_suspicion(4, 1)
        records.add_suspicion(4, 1)
        assert records.window_satisfied(rn=5, suspect=1, window_start=4, threshold=2)

    def test_purge_below_drops_rounds_and_counts(self):
        records = RoundRecords(owner=0)
        for rn in range(1, 6):
            records.add_reception(rn, 1)
            records.add_suspicion(rn, 2)
        dropped = records.purge_below(4)
        assert dropped > 0
        assert records.purged_below == 4
        assert records.tracked_rounds() == 2

    def test_purged_round_behaves_conservatively(self):
        records = RoundRecords(owner=0)
        records.add_suspicion(1, 2)
        records.add_suspicion(1, 2)
        records.purge_below(3)
        # Reception data of purged rounds reverts to the initial {owner}.
        assert records.rec_from(1) == {0}
        assert records.reception_count(1) == 1
        # Purged rounds make the window test fail (conservative direction).
        assert not records.window_satisfied(rn=4, suspect=2, window_start=1, threshold=1)

    def test_purge_is_monotone(self):
        records = RoundRecords(owner=0)
        records.add_reception(5, 1)
        records.purge_below(3)
        assert records.purge_below(2) == 0
        assert records.purged_below == 3

    def test_late_suspicion_below_the_limit_is_counted_then_dropped(self):
        records = RoundRecords(owner=0)
        for rn in range(1, 9):
            records.add_reception(rn, 1)
            records.add_suspicion(rn, 2)
        assert records.purge_below(5) == 8  # rounds 1-4 of both tables
        # A SUSPICION for a purged round still counts until the next purge ...
        assert records.add_suspicion(2, 3) == 1
        assert records.add_suspicion(2, 3) == 2
        # ... which drops it with the rounds it walks (5 and 6, both tables).
        assert records.purge_below(7) == 5
        assert records.suspicion_count(2, 3) == 0
        assert records.tracked_rounds() == 2

    def test_a_far_limit_drops_everything_below_it(self):
        records = RoundRecords(owner=0)
        for rn in (3, 40, 41, 10_000):
            records.add_suspicion(rn, 1)
        assert records.purge_below(5_000) == 3
        assert records.tracked_rounds() == 1

    def test_memory_cells(self):
        records = RoundRecords(owner=0)
        records.add_reception(1, 1)
        records.add_suspicion(1, 2)
        assert records.memory_cells() >= 2


class TestLexicographicMin:
    def test_prefers_lower_value(self):
        assert lexicographic_min({0: 5, 1: 2}) == 1

    def test_ties_broken_by_id(self):
        assert lexicographic_min({2: 1, 1: 1, 0: 3}) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lexicographic_min({})

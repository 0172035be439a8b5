"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.simulation.scheduler import EventScheduler


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert EventScheduler().now == 0.0

    def test_schedule_after_uses_relative_delay(self):
        scheduler = EventScheduler()
        times = []
        scheduler.schedule_after(2.0, lambda: times.append(scheduler.now))
        scheduler.run_until(10.0)
        assert times == [2.0]

    def test_schedule_at_absolute_time(self):
        scheduler = EventScheduler()
        times = []
        scheduler.schedule_at(4.0, lambda: times.append(scheduler.now))
        scheduler.run_until(10.0)
        assert times == [4.0]

    def test_schedule_in_the_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.run_until(5.0)
        with pytest.raises(ValueError, match="past"):
            scheduler.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule_after(-1.0, lambda: None)

    def test_cancel_prevents_execution(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.schedule_after(1.0, lambda: fired.append(True))
        scheduler.cancel(event)
        scheduler.run_until(5.0)
        assert fired == []


class TestRunUntil:
    def test_clock_left_at_horizon(self):
        scheduler = EventScheduler()
        scheduler.schedule_after(1.0, lambda: None)
        scheduler.run_until(7.5)
        assert scheduler.now == 7.5

    def test_events_beyond_horizon_not_run(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_after(3.0, lambda: fired.append("early"))
        scheduler.schedule_after(30.0, lambda: fired.append("late"))
        scheduler.run_until(10.0)
        assert fired == ["early"]
        scheduler.run_until(40.0)
        assert fired == ["early", "late"]

    def test_composability_of_run_until(self):
        scheduler = EventScheduler()
        fired = []
        for delay in (1.0, 5.0, 9.0):
            scheduler.schedule_after(delay, lambda d=delay: fired.append(d))
        scheduler.run_until(4.0)
        scheduler.run_until(10.0)
        assert fired == [1.0, 5.0, 9.0]

    def test_run_until_backwards_rejected(self):
        scheduler = EventScheduler()
        scheduler.run_until(5.0)
        with pytest.raises(ValueError):
            scheduler.run_until(4.0)

    def test_events_scheduled_during_execution_run_in_same_call(self):
        scheduler = EventScheduler()
        fired = []

        def chain():
            fired.append(scheduler.now)
            if len(fired) < 3:
                scheduler.schedule_after(1.0, chain)

        scheduler.schedule_after(1.0, chain)
        scheduler.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_guard(self):
        scheduler = EventScheduler()

        def loop():
            scheduler.schedule_after(0.0, loop)

        scheduler.schedule_after(0.0, loop)
        with pytest.raises(RuntimeError, match="max_events"):
            scheduler.run_until(1.0, max_events=100)

    def test_returns_number_of_executed_events(self):
        scheduler = EventScheduler()
        for _ in range(4):
            scheduler.schedule_after(1.0, lambda: None)
        assert scheduler.run_until(2.0) == 4

    def test_executed_counter(self):
        scheduler = EventScheduler()
        scheduler.schedule_after(1.0, lambda: None)
        scheduler.run_until(2.0)
        assert scheduler.executed == 1


class TestStepAndQuiescence:
    def test_step_returns_false_when_empty(self):
        assert EventScheduler().step() is False

    def test_run_to_quiescence(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_after(1.0, lambda: fired.append(1))
        scheduler.schedule_after(2.0, lambda: fired.append(2))
        executed = scheduler.run_to_quiescence()
        assert executed == 2
        assert fired == [1, 2]

    def test_pending_count(self):
        scheduler = EventScheduler()
        scheduler.schedule_after(1.0, lambda: None)
        scheduler.schedule_after(2.0, lambda: None)
        assert scheduler.pending == 2

    def test_same_timestamp_runs_in_schedule_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(1.0, lambda: order.append("first"))
        scheduler.schedule_at(1.0, lambda: order.append("second"))
        scheduler.run_until(1.0)
        assert order == ["first", "second"]


class TestHeapOrderAndCancellation:
    """The ``(time, seq)`` heap the scheduler owns, through its public API."""

    def test_runs_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(3.0, order.append, "c")
        scheduler.schedule_at(1.0, order.append, "a")
        scheduler.schedule_at(2.0, order.append, "b")
        while scheduler.step():
            pass
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_scheduling_order(self):
        scheduler = EventScheduler()
        order = []
        events = [scheduler.schedule_at(1.0, order.append, label) for label in "xyz"]
        assert [event.seq for event in events] == sorted(event.seq for event in events)
        scheduler.run_until(1.0)
        assert order == ["x", "y", "z"]

    def test_pending_excludes_cancelled_and_executed_events(self):
        scheduler = EventScheduler()
        first = scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        assert scheduler.pending == 2
        scheduler.cancel(first)
        assert scheduler.pending == 1
        scheduler.step()
        assert scheduler.pending == 0

    def test_cancelled_events_are_skipped(self):
        scheduler = EventScheduler()
        fired = []
        first = scheduler.schedule_at(1.0, fired.append, "first")
        scheduler.schedule_at(2.0, fired.append, "second")
        scheduler.cancel(first)
        assert scheduler.step() is True
        assert fired == ["second"]
        assert scheduler.step() is False

    def test_clock_jumps_over_a_cancelled_head(self):
        scheduler = EventScheduler()
        first = scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(5.0, lambda: None)
        scheduler.cancel(first)
        scheduler.step()
        assert scheduler.now == 5.0

    def test_run_until_on_an_empty_heap_only_moves_the_clock(self):
        scheduler = EventScheduler()
        assert scheduler.run_until(5.0) == 0
        assert scheduler.now == 5.0
        assert scheduler.executed == 0

    def test_a_cancelled_event_beyond_the_horizon_is_not_pending(self):
        scheduler = EventScheduler()
        late = scheduler.schedule_at(10.0, lambda: None)
        scheduler.cancel(late)
        scheduler.run_until(5.0)
        assert scheduler.pending == 0
        assert scheduler.run_until(20.0) == 0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule_at(-1.0, lambda: None)

    def test_double_cancel_is_idempotent(self):
        scheduler = EventScheduler()
        event = scheduler.schedule_at(1.0, lambda: None)
        scheduler.cancel(event)
        scheduler.cancel(event)
        assert scheduler.pending == 0
        assert scheduler.run_until(2.0) == 0

    def test_cancel_after_execution_does_not_undercount(self):
        scheduler = EventScheduler()
        first = scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        scheduler.run_until(1.0)
        scheduler.cancel(first)
        assert scheduler.pending == 1

    def test_cancel_after_a_skipped_head_does_not_undercount(self):
        scheduler = EventScheduler()
        first = scheduler.schedule_at(1.0, lambda: None)
        second = scheduler.schedule_at(3.0, lambda: None)
        scheduler.cancel(first)
        scheduler.run_until(2.0)  # pops and skips the cancelled head
        scheduler.cancel(first)
        assert scheduler.pending == 1
        scheduler.cancel(second)
        assert scheduler.pending == 0

    def test_callback_arg_passed_at_execution(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule_at(1.0, seen.append, "payload")
        scheduler.step()
        assert seen == ["payload"]

    def test_cancelled_by_an_earlier_event_of_the_same_timestamp_never_runs(self):
        scheduler = EventScheduler()
        fired = []
        victim = None

        def cancel_victim():
            fired.append("canceller")
            scheduler.cancel(victim)

        scheduler.schedule_at(1.0, cancel_victim)
        victim = scheduler.schedule_at(1.0, fired.append, "victim")
        scheduler.schedule_at(1.0, fired.append, "bystander")
        assert scheduler.run_until(1.0) == 2
        assert fired == ["canceller", "bystander"]
        assert scheduler.executed == 2

    def test_a_raising_callback_leaves_the_rest_of_its_timestamp_pending(self):
        scheduler = EventScheduler()
        fired = []

        def explode():
            fired.append("explode")
            raise RuntimeError("boom")

        scheduler.schedule_at(1.0, fired.append, "a")
        scheduler.schedule_at(1.0, explode)
        scheduler.schedule_at(1.0, fired.append, "b")
        scheduler.schedule_at(1.0, fired.append, "c")
        scheduler.schedule_at(2.0, fired.append, "d")
        with pytest.raises(RuntimeError, match="boom"):
            scheduler.run_until(3.0)
        assert fired == ["a", "explode"]
        assert scheduler.now == 1.0
        assert scheduler.pending == 3
        # Scheduled after the raise, at the same instant: runs after b and c.
        scheduler.schedule_at(1.0, fired.append, "late")
        assert scheduler.run_until(3.0) == 4
        assert fired == ["a", "explode", "b", "c", "late", "d"]

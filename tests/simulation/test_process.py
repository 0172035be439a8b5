"""Unit tests for the simulator process shell (crash-stop semantics, timers)."""

import gc
import weakref
from collections import Counter

import pytest

from repro.core.interfaces import Process, TimerHandle
from repro.core.messages import Alive
from repro.service import build_sharded_service
from repro.simulation.delays import ConstantDelay
from repro.simulation.network import Network
from repro.simulation.process import SimProcessShell
from repro.simulation.scheduler import EventScheduler
from repro.util.rng import RandomSource


class _Recorder(Process):
    """Records every event handed to it and optionally arms timers."""

    def __init__(self):
        self.started = False
        self.messages = []
        self.timers = []
        self.crashed = False
        self.stopped = False

    def on_start(self, env):
        self.started = True

    def on_message(self, env, sender, message):
        self.messages.append((sender, message))

    def on_timer(self, env, timer):
        self.timers.append(timer.name)

    def on_crash(self, env):
        self.crashed = True

    def on_stop(self, env):
        self.stopped = True


def build_shell(n=2):
    scheduler = EventScheduler()
    network = Network(scheduler, ConstantDelay(1.0))
    shells = []
    algorithms = []
    for pid in range(n):
        algorithm = _Recorder()
        shell = SimProcessShell(
            pid=pid,
            algorithm=algorithm,
            scheduler=scheduler,
            network=network,
            process_ids=list(range(n)),
            rng=RandomSource(0, label=str(pid)),
        )
        shells.append(shell)
        algorithms.append(algorithm)
    return scheduler, network, shells, algorithms


class TestLifecycle:
    def test_start_invokes_on_start(self):
        _, _, shells, algorithms = build_shell()
        shells[0].start()
        assert algorithms[0].started is True

    def test_double_start_rejected(self):
        _, _, shells, _ = build_shell()
        shells[0].start()
        with pytest.raises(RuntimeError):
            shells[0].start()

    def test_stop_invokes_on_stop_for_live_process(self):
        _, _, shells, algorithms = build_shell()
        shells[0].start()
        shells[0].stop()
        assert algorithms[0].stopped is True

    def test_stop_skipped_for_crashed_process(self):
        _, _, shells, algorithms = build_shell()
        shells[0].start()
        shells[0].crash()
        shells[0].stop()
        assert algorithms[0].stopped is False


class TestMessaging:
    def test_send_and_deliver(self):
        scheduler, _, shells, algorithms = build_shell()
        shells[0].start()
        shells[1].start()
        shells[0].send(1, Alive.make(1, {0: 0, 1: 0}))
        scheduler.run_until(2.0)
        assert len(algorithms[1].messages) == 1
        assert shells[0].messages_sent == 1
        assert shells[1].messages_received == 1

    def test_crashed_process_does_not_send(self):
        scheduler, network, shells, _ = build_shell()
        shells[0].start()
        shells[0].crash()
        shells[0].send(1, Alive.make(1, {0: 0, 1: 0}))
        assert network.stats.total_sent == 0

    def test_crashed_process_does_not_receive(self):
        scheduler, _, shells, algorithms = build_shell()
        shells[0].start()
        shells[1].start()
        shells[0].send(1, Alive.make(1, {0: 0, 1: 0}))
        shells[1].crash()
        scheduler.run_until(2.0)
        assert algorithms[1].messages == []


class TestTimers:
    def test_timer_fires_with_name(self):
        scheduler, _, shells, algorithms = build_shell()
        shells[0].start()
        shells[0].set_timer(3.0, "ping")
        scheduler.run_until(5.0)
        assert algorithms[0].timers == ["ping"]

    def test_cancelled_timer_does_not_fire(self):
        scheduler, _, shells, algorithms = build_shell()
        shells[0].start()
        handle = shells[0].set_timer(3.0, "ping")
        shells[0].cancel_timer(handle)
        scheduler.run_until(5.0)
        assert algorithms[0].timers == []

    def test_crash_cancels_pending_timers(self):
        scheduler, _, shells, algorithms = build_shell()
        shells[0].start()
        shells[0].set_timer(3.0, "ping")
        shells[0].crash()
        scheduler.run_until(5.0)
        assert algorithms[0].timers == []

    def test_timer_on_crashed_process_returns_cancelled_handle(self):
        _, _, shells, _ = build_shell()
        shells[0].start()
        shells[0].crash()
        handle = shells[0].set_timer(1.0, "ping")
        assert handle.cancelled is True

    def test_negative_delay_rejected(self):
        _, _, shells, _ = build_shell()
        shells[0].start()
        with pytest.raises(ValueError):
            shells[0].set_timer(-1.0, "ping")


@pytest.fixture
def collector_off():
    """Run the test with the cyclic collector off, as timing runs do."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def _live_timer_handles():
    return [obj for obj in gc.get_objects() if isinstance(obj, TimerHandle)]


@pytest.mark.usefixtures("collector_off")
class TestTimerHandlesAreFreedByReferenceCount:
    """A handle holds its scheduler event and the event's argument is the
    handle: unless the shell breaks that cycle once the event is done with,
    every timer a run ever armed stays allocated until a ``gc.collect()``."""

    def test_fired_handle_is_freed(self):
        scheduler, _, shells, algorithms = build_shell()
        shells[0].start()
        handle = weakref.ref(shells[0].set_timer(3.0, "ping"))
        scheduler.run_until(5.0)
        assert algorithms[0].timers == ["ping"]
        assert handle() is None

    def test_cancelled_handle_is_freed_once_its_event_is_popped(self):
        scheduler, _, shells, algorithms = build_shell()
        shells[0].start()
        strong = shells[0].set_timer(3.0, "ping")
        shells[0].cancel_timer(strong)
        handle = weakref.ref(strong)
        del strong
        scheduler.run_until(5.0)
        assert algorithms[0].timers == []
        assert handle() is None

    def test_a_service_run_keeps_only_its_pending_timers(self):
        earlier = {id(handle): handle for handle in _live_timer_handles()}
        service = build_sharded_service(num_shards=1, n=3, t=1, seed=0)
        service.run_until(200.0)
        handles = [h for h in _live_timer_handles() if id(h) not in earlier]
        assert handles
        assert [h for h in handles if h.cancelled or h.fires_at <= service.now] == []


class TestCrash:
    def test_crash_records_time_and_invokes_handler(self):
        scheduler, _, shells, algorithms = build_shell()
        shells[0].start()
        scheduler.run_until(4.0)
        shells[0].crash()
        assert shells[0].crashed is True
        assert shells[0].crash_time == 4.0
        assert algorithms[0].crashed is True

    def test_double_crash_is_idempotent(self):
        _, _, shells, algorithms = build_shell()
        shells[0].start()
        shells[0].crash()
        shells[0].crash()
        assert shells[0].crashed is True

    def test_is_alive_reflects_crash(self):
        _, _, shells, _ = build_shell()
        assert shells[0].is_alive() is True
        shells[0].crash()
        assert shells[0].is_alive() is False


class TestRecoverFoldsCounters:
    def test_counts_sum_and_high_water_marks_max_across_incarnations(self):
        _, _, shells, algorithms = build_shell()
        shell, dying = shells[0], algorithms[0]
        dying.counters = Counter(ballots_started=4, peak_decided_residency=9)
        shell.start()
        shell.crash()
        # Built (and rehydrated, which counts) before the shell swaps it in.
        newcomer = _Recorder()
        newcomer.counters = Counter(
            ballots_started=1, snapshot_restores=1, peak_decided_residency=3
        )
        shell.recover(newcomer)
        assert shell.recoveries == 1 and newcomer.started
        assert newcomer.counters == {
            "ballots_started": 5,
            "snapshot_restores": 1,
            "peak_decided_residency": 9,  # a restart never lowers a peak
        }

    def test_an_algorithm_that_counts_nothing_recovers_with_an_empty_registry(self):
        _, _, shells, _ = build_shell()
        shells[0].start()
        shells[0].crash()
        newcomer = _Recorder()
        shells[0].recover(newcomer)
        assert newcomer.started and not newcomer.counters

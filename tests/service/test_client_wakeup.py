"""Closed-loop clients are woken by the replicas, then observe at a poll tick.

A client no longer re-arms a poll every ``poll_interval``: a replica that
applies (or lease-serves) its command calls the waker the client registered in
``ShardedService.waiters``, and the client observes once, at the first tick of
its own poll lattice — issue time + ``poll_interval`` + ``poll_interval`` ...,
by repeated float addition — at or after the wake-up.  Retries ride one lazily
re-armed timer per client.  Completion times, results and retries land on the
same ticks as under per-tick polling, so for shapes in which no two clients
share a lattice the client histories are those of polling clients.

The equality with polling clients was proven on the tree just before clients
were woken: the digests below passed there, with per-tick polling.  Four later
protocol changes moved the shared ``control`` delay stream, and the digests
were re-recorded after each: catch-up on evidence removed the routine
catch-up polls, an idle leader that owns its ballot began proposing a
``Forward`` the moment it arrives instead of at its next drive tick, a
replica with nothing undecided began forwarding or proposing a client
submission in the submitting turn instead of at its next drive tick, and a
leader whose quorum closes with a full batch queued began proposing it in
that turn (``leases_on`` and ``think_time`` never queue a full batch there
and did not move).  The shapes and the assertions on them are unchanged.
"""

import functools

import pytest

from repro.consensus.commands import Command
from repro.service import (
    ClosedLoopClient,
    KeyValueStore,
    ServiceReplica,
    build_sharded_service,
    start_clients,
    uniform_workload,
    zipfian_workload,
)
from repro.simulation import FaultPlan
from repro.simulation.scheduler import EventScheduler
from repro.storage import CompactionPolicy
from repro.util.rng import RandomSource, fingerprint


def _restart_follower(downtime):
    return lambda shard: FaultPlan.rolling_restarts(
        [(shard + 1) % 3], start=40.0, downtime=downtime
    )


#: name -> (ShardedService keywords, start_clients keywords, read fraction,
#: sorted-history digest; see the module docstring for its provenance).  The
#: arrival offsets ``index / num_clients``, ``poll_interval=1.0`` and think times
#: that are whole ticks keep every client on a lattice of its own.
POLLING_HISTORIES = {
    "leases_off": (
        {}, {}, 0.5,
        "5e1042b02225cc34d228202e267a309d04f7ce771506e5bd1b17003d9087ef68",
    ),
    "leases_on": (
        dict(leases=True), {}, 0.8,
        "b9b45b18e65b6d7177c5a41ae347f19e066cb00ce9fa9c53dd4924c8d547816c",
    ),
    "think_time": (
        {}, dict(think_time=2.0), 0.5,
        "56e7215a4bbd939d7617f559f247f4205d48cdc520416a2f721923f9fe7b5e90",
    ),
    "gateway_crash": (
        dict(fault_plan_factory=lambda shard: FaultPlan.crashes({(shard + 1) % 3: 20.0})),
        {}, 0.5,
        "650aeac8e845b082f4d893a4ca378b1a4d96827ac4a91b1a60d52bcb56e14de0",
    ),
    "compaction_restart": (
        dict(
            compaction=CompactionPolicy(interval=8, retain=4),
            fault_plan_factory=_restart_follower(30.0),
        ),
        {}, 0.5,
        "b1abd30ce540654cd27820a2ac018c469c2d075375b4bbd7a6571631f8ba8a4a",
    ),
    "storage_replay": (
        dict(stable_storage=True, fault_plan_factory=_restart_follower(20.0)),
        {}, 0.5,
        "fe87be0398f0bbb6ebfb8aff23f3f6a4b7240e74b4c8d39013d64fb4ba9e753d",
    ),
}


@pytest.mark.parametrize("name", sorted(POLLING_HISTORIES))
def test_history_is_the_polling_clients_history(name):
    service_keywords, client_keywords, read_fraction, digest = POLLING_HISTORIES[name]
    service = build_sharded_service(num_shards=2, n=3, t=1, seed=7, **service_keywords)
    clients = start_clients(
        service,
        num_clients=12,
        workload_factory=lambda index: zipfian_workload(
            num_keys=32, read_fraction=read_fraction
        ),
        record_history=True,
        **client_keywords,
    )
    service.run_until(150.0)
    records = sorted(record.to_tuple() for client in clients for record in client.history)
    assert fingerprint(records) == digest
    # Each shape exercises the path it is named for.
    perf = service.perf_counters()
    retries = sum(client.stats.retries for client in clients)
    if name == "gateway_crash":
        assert retries > 0
    if name == "compaction_restart":
        assert perf["snapshot_restores"] > 0  # the wake-everyone path
    if name == "storage_replay":
        assert perf["recoveries"] > 0 and perf["storage_writes"] > 0
    if name == "leases_on":
        assert service.counters()["lease_reads_served"] > 0


# ------------------------------------------------------------------ stub service --
class _StubReplica:
    def __init__(self):
        self.applied = set()
        self.state_machine = KeyValueStore()  # results read back: none applied

    def command_applied(self, client_id, seq):
        return (client_id, seq) in self.applied


class _StubService:
    """The slice of ``ShardedService`` a leases-off client touches."""

    n = 3
    leases = False

    def __init__(self):
        self.scheduler = EventScheduler()
        self.waiters = {}
        self.replica = _StubReplica()
        self.correct = [self.replica]
        #: ``(now, gateway)`` of every submission.
        self.submits = []

    @property
    def now(self):
        return self.scheduler.now

    def run_until(self, time):
        self.scheduler.run_until(time)

    def submit(self, command, gateway=None):
        self.submits.append((self.now, gateway))
        return 0

    def correct_replicas(self, shard):
        return self.correct


def _stub_client(poll_interval, retry_timeout=40.0, seed=5):
    service = _StubService()
    client = ClosedLoopClient(
        "c",
        service,
        uniform_workload(4, read_fraction=0.0),
        RandomSource(seed),
        poll_interval=poll_interval,
        retry_timeout=retry_timeout,
        record_history=True,
    )
    return service, client


def _latencies(client):
    return [record.completed_at - record.invoked_at for record in client.history]


def _lattice_tick_at_or_after(issued_at, poll_interval, instant):
    tick = issued_at + poll_interval
    while tick < instant:
        tick += poll_interval
    return tick


def test_observation_lands_on_the_repeated_addition_lattice():
    poll_interval = 0.3
    offset = 1 / 48
    service, client = _stub_client(poll_interval)
    client.start(delay=offset)
    service.run_until(offset)
    key = ("c", 1)
    applied_at = offset + 7.77
    service.run_until(applied_at)
    service.replica.applied.add(key)
    service.waiters[key]()  # the replica's wake-up
    service.run_until(applied_at + poll_interval)
    expected = _lattice_tick_at_or_after(offset, poll_interval, applied_at)
    # The multiplied lattice is a different float here: the test can tell.
    assert expected != offset + 26 * poll_interval
    assert _latencies(client) == [expected - offset]
    assert key not in service.waiters


def test_retry_fires_on_the_polling_tick_with_the_same_draw():
    poll_interval, retry_timeout, seed = 0.3, 7.0, 5
    service, client = _stub_client(poll_interval, retry_timeout, seed)
    offset = 1 / 48
    client.start(delay=offset)
    service.run_until(40.0)
    # What a client polling every tick does: retry at the first tick at least
    # retry_timeout past the last submission, drawing one gateway each time.
    twin = RandomSource(seed)
    gateway = twin.randint(0, 2)
    uniform_workload(4, read_fraction=0.0).next_operation(twin)
    expected = [(offset, gateway)]
    tick = last_submit = offset
    while True:
        tick += poll_interval
        if tick > 40.0:
            break
        if tick - last_submit >= retry_timeout:
            expected.append((tick, twin.randint(0, 2)))
            last_submit = tick
    assert len(expected) >= 5
    assert service.submits == expected
    assert client.stats.retries == len(expected) - 1
    assert service.scheduler.pending == 1  # the one retry timer, nothing polling


def test_a_wake_up_observed_on_the_retry_tick_completes_once():
    service, client = _stub_client(poll_interval=1.0, retry_timeout=5.0)
    client.start()
    service.run_until(4.5)
    service.replica.applied.add(("c", 1))
    service.waiters[("c", 1)]()  # observation due at 5.0, the retry tick too
    service.run_until(5.0)
    assert _latencies(client) == [5.0]
    assert client.stats.retries == 0
    assert client.seq == 2 and ("c", 2) in service.waiters


def test_a_completion_on_the_retry_tick_issues_at_once_under_one_retry_timer():
    """A client that does not think issues its next command inside the
    observation that completed the last.  Here that observation is the retry
    timer's own: the issue arms the timer for the new command, and the timer
    must not arm a second one on top."""
    service, client = _stub_client(poll_interval=1.0, retry_timeout=5.0)
    assert client.think_time == 0
    client.start()
    service.run_until(4.5)
    service.replica.applied.add(("c", 1))  # applied, but nobody wakes the client
    service.run_until(5.0)  # the retry tick observes it
    assert _latencies(client) == [5.0]
    assert client.stats.retries == 0
    # The successor was submitted at the completing instant ...
    assert [time for time, _gateway in service.submits] == [0.0, 5.0]
    assert client.seq == 2 and ("c", 2) in service.waiters
    # ... and only its one retry timer is pending: no issue event, no twin timer.
    assert service.scheduler.pending == 1
    service.run_until(10.0)
    assert client.stats.retries == 1
    assert service.scheduler.pending == 1


def test_command_applied_only_at_a_replica_that_is_not_correct_does_not_complete():
    service, client = _stub_client(poll_interval=1.0)
    client.start()
    key = ("c", 1)
    elsewhere = _StubReplica()  # applied it, but is not among the correct
    elsewhere.applied.add(key)
    service.run_until(2.5)
    service.waiters[key]()
    service.run_until(10.0)
    assert client.stats.completed == 0
    assert key in service.waiters  # the failed check keeps the waiter
    service.replica.applied.add(key)
    service.waiters[key]()
    service.run_until(11.0)
    assert _latencies(client) == [10.0]


def test_snapshot_installation_wakes_every_waiter():
    service = build_sharded_service(num_shards=2, n=3, t=1, seed=1)
    woken = []
    service.waiters[("a", 1)] = lambda: woken.append("a")
    service.waiters[("b", 4)] = lambda: woken.append("b")
    replica = service.replicas(0)[1]
    replica._restore_snapshot(replica.state_machine.snapshot_items())
    assert sorted(woken) == ["a", "b"]
    replica._apply_delivered(1, Command.put("b", 4, "k", 1))
    assert sorted(woken) == ["a", "b", "b"]


def test_the_waiter_table_hears_applies_duplicates_serves_and_snapshots():
    replica = ServiceReplica(pid=0, n=3, t=1)
    calls = []
    for key in [("c", 1), ("r", 2), ("idle", 9)]:
        replica.waiters[key] = functools.partial(calls.append, key)
    command = Command.put("c", 1, "k", "v")
    replica._apply_delivered(1, command)
    replica._apply_delivered(2, command)  # a duplicate, absorbed — still wakes
    replica._serve_read(Command.get("r", 2, "k"), 2)
    assert calls == [("c", 1), ("c", 1), ("r", 2)]
    # A snapshot install wakes every waiter, in table order.
    replica._restore_snapshot(replica.state_machine.snapshot_items())
    assert calls[3:] == [("c", 1), ("r", 2), ("idle", 9)]


def test_every_replica_wakes_through_the_services_waiter_table():
    service = build_sharded_service(num_shards=2, n=3, t=1, seed=1)
    assert all(
        replica.waiters is service.waiters
        for shard in range(service.num_shards)
        for replica in service.replicas(shard)
    )


def test_leased_read_served_at_submit_is_observed_one_tick_later():
    poll_interval = 0.25
    service = build_sharded_service(num_shards=1, n=3, t=1, seed=3, leases=True)
    service.run_until(60.0)
    client = ClosedLoopClient(
        "reader",
        service,
        uniform_workload(8, read_fraction=1.0),
        service.rng("reader"),
        poll_interval=poll_interval,
        record_history=True,
    )
    served = service.counters()["lease_reads_served"]
    client.start()
    service.run_until(60.0)
    assert service.counters()["lease_reads_served"] == served + 1  # inside the submit
    assert client.stats.completed == 0
    service.run_until(60.0 + poll_interval)
    assert [(r.invoked_at, r.completed_at) for r in client.history] == [
        (60.0, 60.0 + poll_interval)
    ]
    audit = service.read_audits[0][-1]
    assert (audit.client_id, audit.seq) == ("reader", 1)


def test_a_long_run_keeps_two_events_per_client_and_observes_only_what_took_effect():
    service = build_sharded_service(num_shards=2, n=3, t=1, seed=11)
    clients = start_clients(
        service,
        num_clients=12,
        workload_factory=lambda index: zipfian_workload(num_keys=32),
    )
    polls = []
    for client in clients:
        poll = client._poll
        client._poll = lambda poll=poll: (polls.append(1), poll())
    heap = service.scheduler._heap
    peak = 0
    time = 0.0
    while sum(client.stats.completed for client in clients) < 2000:
        time += 2.5
        service.run_until(time)
        queued = sum(
            1 for _, _, event in heap if isinstance(getattr(event.callback, "__self__", None), ClosedLoopClient)
        )
        peak = max(peak, queued)
    completed = sum(client.stats.completed for client in clients)
    retries = sum(client.stats.retries for client in clients)
    assert peak <= 2 * len(clients)
    # Fault-free, nothing is retried, so every observation completed a command.
    assert retries == 0
    assert len(polls) == completed


def test_a_negative_think_time_is_refused_at_construction():
    """Accepted, it would fail only at the first completion, when the
    scheduler refuses the negative delay."""
    with pytest.raises(ValueError, match="think_time must be >= 0"):
        ClosedLoopClient(
            "c", _StubService(), uniform_workload(4), RandomSource(5), think_time=-3.0
        )

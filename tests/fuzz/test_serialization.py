"""FaultPlan/FaultEvent serialization: the corpus wire format round-trips.

The fuzz corpus stores plans as JSON; corrupted or hand-edited entries must
fail loudly on load (unknown kinds, unknown fields, out-of-range values all
raise), and every constructible plan must survive ``to_dict -> json ->
from_dict`` bit-for-bit — including through the validation hook that
``from_dict(n=..., t=...)`` applies.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.faults import (
    EVENT_KINDS,
    CorruptLink,
    Crash,
    FaultPlan,
    LinkFault,
    LinkHeal,
    PartitionHeal,
    PartitionStart,
    Recover,
    SlowProcess,
    event_from_dict,
    event_to_dict,
)

N, T = 4, 1


def sample_plan() -> FaultPlan:
    return FaultPlan(
        [
            Crash(time=5.0, pid=1),
            Recover(time=9.0, pid=1),
            PartitionStart(time=12.0, groups=((0, 1), (2, 3))),
            PartitionHeal(time=16.0),
            LinkFault(time=20.0, sender=0, dest=2, loss_probability=0.25, until=30.0),
            LinkHeal(time=31.0, sender=0, dest=2),
            CorruptLink(time=35.0, sender=3, dest=0, probability=0.5, until=40.0),
            SlowProcess(time=42.0, pid=2, factor=3.0, until=50.0),
        ]
    )


class TestEventRoundTrip:
    def test_every_kind_round_trips(self):
        for event in sample_plan().events:
            data = event_to_dict(event)
            assert data["kind"] in EVENT_KINDS
            rebuilt = event_from_dict(json.loads(json.dumps(data)))
            assert rebuilt == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault event kind"):
            event_from_dict({"kind": "meteor-strike", "time": 1.0})

    def test_unknown_field_rejected(self):
        data = event_to_dict(Crash(time=1.0, pid=0))
        data["severity"] = "high"
        with pytest.raises(ValueError, match="unknown field"):
            event_from_dict(data)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            event_from_dict({"kind": "crash", "time": 1.0})  # no pid

    def test_out_of_range_value_rejected_on_load(self):
        data = event_to_dict(CorruptLink(time=1.0, sender=0, dest=1, probability=0.5))
        data["probability"] = 1.5
        with pytest.raises(ValueError):
            event_from_dict(data)

    def test_partition_groups_restored_as_tuples(self):
        event = PartitionStart(time=2.0, groups=((0,), (1, 2)))
        rebuilt = event_from_dict(json.loads(json.dumps(event_to_dict(event))))
        assert rebuilt.groups == ((0,), (1, 2))


class TestPlanRoundTrip:
    def test_plan_round_trips_through_json(self):
        plan = sample_plan()
        data = json.loads(json.dumps(plan.to_dict()))
        rebuilt = FaultPlan.from_dict(data)
        assert rebuilt.events == plan.events
        assert rebuilt.to_dict() == plan.to_dict()

    def test_from_dict_validates_when_given_n_t(self):
        plan = sample_plan()
        rebuilt = FaultPlan.from_dict(plan.to_dict(), n=N, t=T)
        assert rebuilt.events == plan.events
        # pid 3 does not exist in a 3-process system: validation must fire.
        with pytest.raises(ValueError):
            FaultPlan.from_dict(plan.to_dict(), n=3, t=1)

    def test_from_dict_needs_both_n_and_t_or_neither(self):
        """Regression: ``n`` without ``t`` used to validate against t=0, which
        rejected every plan containing a crash with a misleading budget error."""
        data = FaultPlan.crashes({1: 5.0}).to_dict()
        with pytest.raises(ValueError, match="t is missing"):
            FaultPlan.from_dict(data, n=3)
        with pytest.raises(ValueError, match="n is missing"):
            FaultPlan.from_dict(data, t=1)
        assert FaultPlan.from_dict(data, n=3, t=1).final_down_ids() == [1]

    def test_version_and_shape_checked(self):
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"version": 99, "events": []})
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"version": 1, "events": "oops"})
        with pytest.raises(ValueError):
            FaultPlan.from_dict("not-a-dict")

    def test_empty_plan_round_trips(self):
        assert FaultPlan.from_dict(FaultPlan.none().to_dict()).events == []


# -------------------------------------------------------------- property tests --
times = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
pids = st.integers(min_value=0, max_value=N - 1)
probabilities = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@st.composite
def fault_events(draw):
    kind = draw(st.sampled_from(sorted(EVENT_KINDS)))
    time = draw(times)
    if kind == "crash":
        return Crash(time=time, pid=draw(pids))
    if kind == "recover":
        return Recover(time=time, pid=draw(pids))
    if kind == "partition_heal":
        return PartitionHeal(time=time)
    if kind == "partition_start":
        members = draw(st.lists(pids, min_size=1, max_size=N, unique=True))
        return PartitionStart(time=time, groups=(tuple(members),))
    until = draw(st.one_of(st.none(), st.just(time + draw(st.floats(1.0, 50.0)))))
    if kind == "link_fault":
        return LinkFault(
            time=time,
            sender=draw(pids),
            dest=draw(pids),
            block=draw(st.booleans()),
            loss_probability=draw(st.floats(0.0, 1.0)),
            until=until,
        )
    if kind == "link_heal":
        return LinkHeal(time=time, sender=draw(pids), dest=draw(pids))
    if kind == "corrupt_link":
        return CorruptLink(
            time=time,
            sender=draw(pids),
            dest=draw(pids),
            probability=draw(probabilities),
            until=until,
        )
    return SlowProcess(
        time=time, pid=draw(pids), factor=draw(st.floats(0.1, 10.0)), until=until
    )


class TestRoundTripProperties:
    @given(events=st.lists(fault_events(), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_any_plan_round_trips(self, events):
        plan = FaultPlan(events)
        data = json.loads(json.dumps(plan.to_dict(), sort_keys=True))
        rebuilt = FaultPlan.from_dict(data)
        assert rebuilt.events == plan.events
        assert rebuilt.to_dict() == plan.to_dict()

    @given(event=fault_events())
    @settings(max_examples=120, deadline=None)
    def test_any_event_round_trips(self, event):
        assert event_from_dict(event_to_dict(event)) == event

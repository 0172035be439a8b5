"""Mutation engine and counterexample minimization.

The mutation property that keeps the whole campaign sound: **every mutant the
engine emits validates** — fault budget ≤ t, pid ranges, crash/recover
pairing, and (in admission mode) the quorum-amnesia check.  The minimizer is
tested against a synthetic predicate (exact, no simulation) and through
``emit_regression_test``'s round-trip.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.fuzz.corpus import amnesia_witness_plan, seed_corpus
from repro.fuzz.executor import FUZZ_BASELINE
from repro.fuzz.minimize import ddmin, emit_regression_test
from repro.fuzz.mutators import MAX_EVENTS, MutationEngine
from repro.service.sharding import ServiceSpec
from repro.simulation.faults import Crash, FaultPlan, Recover
from repro.util.rng import RandomSource

N, T = 3, 1


class TestMutationEngine:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120, deadline=None)
    def test_every_mutant_validates(self, seed):
        engine = MutationEngine(n=N, t=T, horizon=100.0)
        rng = RandomSource(seed)
        corpus = seed_corpus(N, T)
        donors = [entry.plan() for entry in corpus]
        parent = donors[seed % len(donors)]
        mutant = engine.mutate(
            parent, rng, donors=donors, leader_change_times=(22.5, 47.0)
        )
        if mutant is None:
            return  # a sterile draw is allowed; an invalid mutant is not
        mutant.validate(N, T)  # must not raise
        assert 0 < len(mutant.events) <= MAX_EVENTS

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120, deadline=None)
    def test_admission_mode_rejects_amnesia_unsafe_mutants(self, seed):
        engine = MutationEngine(n=N, t=T, horizon=100.0, require_quorum_memory=True)
        rng = RandomSource(seed)
        # With n=3, t=1 a single restart already covers a quorum intersection,
        # so the witness parent only survives mutation if the restarts go.
        mutant = engine.mutate(amnesia_witness_plan(), rng)
        if mutant is not None:
            assert mutant.amnesia_hazards(N, T) == []

    def test_mutation_is_deterministic_in_the_rng(self):
        engine = MutationEngine(n=N, t=T, horizon=100.0)
        parent = amnesia_witness_plan()
        a = engine.mutate(parent, RandomSource(42), leader_change_times=(30.0,))
        b = engine.mutate(parent, RandomSource(42), leader_change_times=(30.0,))
        assert (a is None) == (b is None)
        if a is not None:
            assert a.to_dict() == b.to_dict()

    def test_parent_plan_is_not_mutated_in_place(self):
        parent = amnesia_witness_plan()
        before = parent.to_dict()
        engine = MutationEngine(n=N, t=T, horizon=100.0)
        for seed in range(10):
            engine.mutate(parent, RandomSource(seed))
        assert parent.to_dict() == before


class TestDdmin:
    def test_shrinks_to_the_failing_core(self):
        # Synthetic oracle: "fails" iff events at pids 1 AND 2 both survive.
        events = [Crash(time=float(i + 1), pid=i % 3) for i in range(9)]

        def predicate(subset):
            pids = {event.pid for event in subset}
            return {1, 2} <= pids

        reduced = ddmin(events, predicate)
        assert predicate(reduced)
        assert len(reduced) == 2
        assert {event.pid for event in reduced} == {1, 2}

    def test_single_event_core(self):
        events = [Crash(time=float(i + 1), pid=i % 3) for i in range(8)]
        reduced = ddmin(events, lambda subset: any(e.pid == 0 for e in subset))
        assert len(reduced) == 1 and reduced[0].pid == 0

    def test_keeps_everything_when_all_needed(self):
        events = [Crash(time=float(i + 1), pid=i) for i in range(4)]
        reduced = ddmin(events, lambda subset: len(subset) == 4)
        assert len(reduced) == 4


class TestEmitRegressionTest:
    def test_emitted_module_is_valid_python_and_replayable(self):
        spec = dataclasses.replace(FUZZ_BASELINE, seed=3)
        plan = FaultPlan([Crash(time=10.0, pid=1), Recover(time=14.0, pid=1)])
        source = emit_regression_test(
            name="example-finding",
            spec=spec,
            plan=plan,
            kinds=("agreement",),
        )
        compile(source, "<emitted>", "exec")  # syntactically valid
        assert "def test_example_finding()" in source
        # The embedded dicts round-trip to the exact spec/plan.  Executing the
        # module only defines the test function; it does not run the scenario.
        namespace: dict = {}
        exec(compile(source, "<emitted>", "exec"), namespace)
        assert ServiceSpec.from_dict(namespace["SPEC"]) == spec
        assert FaultPlan.from_dict(namespace["PLAN"]).events == plan.events
        assert namespace["EXPECTED_KINDS"] == ("agreement",)

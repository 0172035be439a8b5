"""Automatic counterexample minimization: delta-debug events, then shrink time.

A finding's raw plan usually carries mutation debris — spliced chunks that
never mattered, jittered timestamps with six decimals.  Minimization runs the
real executor as its oracle:

1. **ddmin over the event list** (Zeller's delta debugging): remove
   complement chunks at doubling granularity, keeping any subset that still
   reproduces a violation of the target kinds.  Subsets that no longer form a
   valid plan (a ``Recover`` whose ``Crash`` was removed, a busted budget)
   simply fail the predicate — validity is part of the oracle.
2. **Timing shrink**: snap each surviving event's ``time``/``until`` to the
   coarsest value (integer, then one decimal) that still reproduces, and try
   dropping ``until`` windows entirely.  The emitted counterexample reads
   like something a person would have written.

Every probe is one deterministic :func:`~repro.fuzz.executor.run_scenario`
call, so the minimized plan — and the regression test emitted from it —
replays byte-identically from its ``(seed, plan)`` pair.
"""

from __future__ import annotations

import dataclasses
import pprint
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.fuzz.executor import run_scenario
from repro.service.sharding import ServiceSpec
from repro.simulation.faults import FaultEvent, FaultPlan

Predicate = Callable[[Sequence[FaultEvent]], bool]


@dataclasses.dataclass
class MinimizationResult:
    """Outcome of one minimization run."""

    plan: FaultPlan
    original_events: int
    minimized_events: int
    executions_used: int
    target_kinds: Tuple[str, ...]


class _Budget:
    """Counts oracle executions and stops the search when exhausted."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    def charge(self) -> bool:
        if self.exhausted:
            return False
        self.used += 1
        return True


def _violates(
    spec: ServiceSpec,
    events: Sequence[FaultEvent],
    target_kinds: Set[str],
    budget: _Budget,
) -> bool:
    """Oracle: does this event list still reproduce a targeted violation?"""
    if not budget.charge():
        return False
    plan = FaultPlan(list(events))
    try:
        plan.validate(spec.n, spec.t)
    except ValueError:
        return False
    result = run_scenario(spec, plan)
    return any(violation.kind in target_kinds for violation in result.violations)


def ddmin(
    events: Sequence[FaultEvent],
    predicate: Predicate,
) -> List[FaultEvent]:
    """Classic ddmin: the returned list is 1-minimal w.r.t. *predicate* (as
    far as the predicate's own budget allowed)."""
    current = list(events)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            complement = current[:start] + current[start + chunk :]
            if complement and predicate(complement):
                current = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                start = 0
                continue
            start += chunk
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def _shrink_times(
    events: List[FaultEvent], predicate: Predicate
) -> List[FaultEvent]:
    """Snap times to coarse values and drop ``until`` windows where possible."""
    current = list(events)
    for index in range(len(current)):
        event = current[index]
        candidates: List[FaultEvent] = []
        for digits in (0, 1):
            rounded = round(event.time, digits)
            if rounded != event.time and rounded >= 0:
                changes: Dict[str, object] = {"time": rounded}
                until = getattr(event, "until", None)
                if until is not None and until <= rounded:
                    changes["until"] = rounded + max(1.0, until - event.time)
                candidates.append(dataclasses.replace(event, **changes))
        until = getattr(event, "until", None)
        if until is not None:
            candidates.append(dataclasses.replace(event, until=None))
            for digits in (0, 1):
                rounded = round(until, digits)
                if rounded != until and rounded > event.time:
                    candidates.append(dataclasses.replace(event, until=rounded))
        for candidate in candidates:
            trial = current[:index] + [candidate] + current[index + 1 :]
            if predicate(trial):
                current = trial
                break
    return current


def minimize(
    spec: ServiceSpec,
    plan: FaultPlan,
    target_kinds: Sequence[str],
    budget: int = 120,
) -> MinimizationResult:
    """Shrink *plan* while it keeps violating one of *target_kinds*.

    The original plan is assumed to reproduce (callers pass a confirmed
    finding); when the budget is too small to even confirm, the original is
    returned unchanged.
    """
    kinds = set(target_kinds)
    tracker = _Budget(budget)

    def predicate(events: Sequence[FaultEvent]) -> bool:
        return _violates(spec, events, kinds, tracker)

    events = list(plan.events)
    if not predicate(events):  # confirm (or budget=0): nothing to do safely
        return MinimizationResult(
            plan=plan,
            original_events=len(events),
            minimized_events=len(events),
            executions_used=tracker.used,
            target_kinds=tuple(sorted(kinds)),
        )
    reduced = ddmin(events, predicate)
    reduced = _shrink_times(reduced, predicate)
    return MinimizationResult(
        plan=FaultPlan(reduced),
        original_events=len(events),
        minimized_events=len(reduced),
        executions_used=tracker.used,
        target_kinds=tuple(sorted(kinds)),
    )


# ------------------------------------------------------------------ regression emit --
_REGRESSION_TEMPLATE = '''"""Auto-generated fuzz regression: {title}.

Emitted by repro.fuzz.minimize.emit_regression_test from a minimized
counterexample.  The scenario replays deterministically from the embedded
(spec, plan) pair; the assertion pins the violation kind(s) the campaign
observed.
"""

from repro.fuzz.executor import run_scenario
from repro.service.sharding import ServiceSpec
from repro.simulation.faults import FaultPlan

SPEC = {spec_json}

PLAN = {plan_json}

EXPECTED_KINDS = {kinds!r}


def test_{name}():
    spec = ServiceSpec.from_dict(SPEC)
    plan = FaultPlan.from_dict(PLAN, n=spec.n, t=spec.t)
    result = run_scenario(spec, plan)
    observed = {{violation.kind for violation in result.violations}}
    assert set(EXPECTED_KINDS) <= observed, (
        f"expected violation kinds {{EXPECTED_KINDS}} to reproduce, "
        f"observed {{sorted(observed)}}"
    )
'''


def emit_regression_test(
    name: str,
    spec: ServiceSpec,
    plan: FaultPlan,
    kinds: Sequence[str],
    title: Optional[str] = None,
) -> str:
    """Render a self-contained pytest module reproducing a minimized finding."""
    safe = name.replace("-", "_")
    if not safe.isidentifier():
        raise ValueError(f"{name!r} does not form a valid test name")
    # pprint (not json.dumps): the dicts are embedded as Python literals,
    # so None/True/False must render as such, not null/true/false.
    spec_json = pprint.pformat(spec.to_dict(), width=79, sort_dicts=True)
    plan_json = pprint.pformat(plan.to_dict(), width=79, sort_dicts=True)
    return _REGRESSION_TEMPLATE.format(
        title=title or f"minimized fault schedule {name}",
        name=safe,
        spec_json=spec_json,
        plan_json=plan_json,
        kinds=tuple(sorted(set(kinds))),
    )


__all__ = [
    "MinimizationResult",
    "ddmin",
    "emit_regression_test",
    "minimize",
]

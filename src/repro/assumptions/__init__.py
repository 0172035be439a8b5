"""Executable behavioural assumptions (Sections 3 and 7 of the paper)."""

from repro.assumptions.base import Scenario
from repro.assumptions.growing import GrowingStarDelayModel, GrowingStarScenario
from repro.assumptions.scenarios import (
    AsynchronousAdversaryScenario,
    CombinedMrtScenario,
    ConstantDelayScenario,
    EventualRotatingStarScenario,
    EventualTMovingSourceScenario,
    EventualTSourceScenario,
    IntermittentRotatingStarScenario,
    MessagePatternScenario,
    RotatingPersecutionScenario,
    StrictTSourceScenario,
    special_case_scenarios,
)
from repro.assumptions.star import (
    AlwaysFastPolicy,
    DEFAULT_CONSTRAINED_TAGS,
    EscalatingPersecutionPolicy,
    FixedSlowSetPolicy,
    RandomSlowPolicy,
    SenderBehaviourPolicy,
    StarDelayModel,
    StarSchedule,
    StarTiming,
    TIMELY,
    WINNING,
)

__all__ = [
    "AlwaysFastPolicy",
    "AsynchronousAdversaryScenario",
    "CombinedMrtScenario",
    "ConstantDelayScenario",
    "DEFAULT_CONSTRAINED_TAGS",
    "EscalatingPersecutionPolicy",
    "EventualRotatingStarScenario",
    "EventualTMovingSourceScenario",
    "EventualTSourceScenario",
    "FixedSlowSetPolicy",
    "GrowingStarDelayModel",
    "GrowingStarScenario",
    "IntermittentRotatingStarScenario",
    "MessagePatternScenario",
    "RandomSlowPolicy",
    "RotatingPersecutionScenario",
    "Scenario",
    "SenderBehaviourPolicy",
    "StarDelayModel",
    "StrictTSourceScenario",
    "StarSchedule",
    "StarTiming",
    "TIMELY",
    "WINNING",
    "special_case_scenarios",
]

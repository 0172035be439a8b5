"""SLT004 — hot-path allocation: ``__slots__`` and closure-free event code.

The simulator's throughput lives and dies on per-event allocation cost (the
PR 2 event-core design and the PR 8 hot-path pass).  Classes instantiated per
event/message — everything defined in ``simulation/events.py``,
``simulation/scheduler.py``, ``simulation/network.py`` and
``consensus/messages.py`` — must declare ``__slots__`` (a class-body
assignment or ``@dataclass(slots=True)``), and no function in those modules
may allocate a lambda or nested ``def`` per call (closures allocate a cell +
function object on every execution of the enclosing body).

Per-run singletons (the scheduler, the network) gain nothing
from slots; they are suppressed in the committed baseline with that
justification rather than special-cased here — the rule stays mechanical.
"""

from __future__ import annotations

import re
from typing import List

from repro.lint.report import Finding
from repro.lint.walker import ProjectModel

RULE_ID = "SLT004"
SUMMARY = "hot-path class without __slots__ / per-call lambda allocation"
HISTORICAL_BUG = "PR 2 / PR 8: per-event dict allocations dominated the hot loop"

#: Modules whose classes are instantiated on the per-event hot path.
SCOPED_MODULE = re.compile(
    r"(^|/)(simulation/(events|scheduler|network)|consensus/messages)\.py$"
)


def check(model: ProjectModel) -> List[Finding]:
    findings = []
    for module in model.modules.values():
        if not SCOPED_MODULE.search(module.relpath):
            continue
        for cls in module.classes.values():
            if not cls.has_slots:
                findings.append(
                    Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=cls.lineno,
                        symbol=cls.name,
                        message=(
                            f"hot-path class {cls.name} declares no __slots__; "
                            "each instance allocates a dict"
                        ),
                    )
                )
            functions = list(cls.methods.values())
            for function in functions:
                for line in function.nested_callables:
                    findings.append(
                        Finding(
                            rule=RULE_ID,
                            path=module.relpath,
                            line=line,
                            symbol=f"{function.qualname}:closure",
                            message=(
                                "lambda/nested def allocated inside a hot-path "
                                "body; hoist it to module level"
                            ),
                        )
                    )
        for function in module.functions.values():
            for line in function.nested_callables:
                findings.append(
                    Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=line,
                        symbol=f"{function.qualname}:closure",
                        message=(
                            "lambda/nested def allocated inside a hot-path "
                            "body; hoist it to module level"
                        ),
                    )
                )
    return findings

"""CNT002 — counts go into the counter registry, not onto the incarnation.

A recovery replaces a process's algorithm object, so a plain attribute counter
(``self.drops += 1``) silently resets to zero at every restart — the bug shipped
(and hand-fixed) in PR 5 and again in PR 7.  The process's counter registry
(:attr:`repro.core.interfaces.Process.counters`) is folded across incarnations
by :meth:`repro.simulation.process.SimProcessShell.recover`, so the rule is
just: count there (``self.counters["drops"] += 1``).

Scope: classes whose name mentions Replica/Stack/Log/Lease/Omega/Ballot, outside the
paper-baseline package (``baselines/`` algorithms predate the recovery model
and are exercised crash-stop only).  A *counter* is a non-underscore attribute
whose only mutations are ``self.<name> += <positive const>`` bumps (plain or
dict-slot) — an attribute also plainly reassigned outside ``__init__`` is
protocol state, not a counter.
"""

from __future__ import annotations

import re
from typing import List, Set

from repro.lint.report import Finding
from repro.lint.walker import ProjectModel

RULE_ID = "CNT002"
SUMMARY = "counter kept on a replica class attribute instead of the counter registry"
HISTORICAL_BUG = "PR 5 / PR 7: counters silently reset by crash-recovery"

#: Class names subject to the counter discipline.
SCOPED_CLASS_NAME = re.compile(r"Replica|Stack|Log|Lease|Omega|Ballot")

#: Module path fragments excluded from the rule.
EXCLUDED_PATH_FRAGMENTS = ("baselines/", "consensus/messages.py")

#: The registry attribute: ``self.counters[name] += ...`` is the sanctioned bump.
REGISTRY_ATTR = "counters"


def check(model: ProjectModel) -> List[Finding]:
    findings = []
    for cls in model.iter_classes():
        if not SCOPED_CLASS_NAME.search(cls.name):
            continue
        if any(fragment in cls.module.relpath for fragment in EXCLUDED_PATH_FRAGMENTS):
            continue
        reported: Set[str] = set()
        for increment in cls.counter_increments:
            name = increment.name
            if name == REGISTRY_ATTR and increment.subscripted:
                continue
            if name in reported or name in cls.reassigned_attrs:
                continue
            reported.add(name)
            findings.append(
                Finding(
                    rule=RULE_ID,
                    path=cls.module.relpath,
                    line=increment.lineno,
                    symbol=f"{cls.name}.{name}",
                    message=(
                        f"counter {name!r} is kept on the incarnation and resets to "
                        f"zero on crash-recovery; bump self.{REGISTRY_ATTR}[{name!r}] "
                        "instead"
                    ),
                )
            )
    return findings

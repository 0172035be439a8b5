"""MSG003 — protocol completeness: dispatch arms and the fault-event registry.

Two registries must stay total:

* every protocol message class defined in ``consensus/messages.py`` (a
  ``Message`` subclass) must appear in an ``isinstance`` dispatch arm of the
  consensus layer (``replicated_log.py`` or ``stack.py``) —
  a message that is constructed and sent but never dispatched is silently
  dropped by the receiver's fallthrough;
* the ``EVENT_KINDS`` wire registry in ``faults.py`` must be a bijection with
  the ``FaultEvent`` subclasses defined there (private ``_``-prefixed
  intermediates excluded), and every registered class must be a dataclass so
  the generic ``event_to_dict``/``event_from_dict`` field walk covers all of
  its fields.  An unregistered subclass serializes as a loud ``TypeError`` at
  corpus-save time — after the fuzz campaign already ran.

Historical bug: the PR 9 lease messages grew dispatch arms one by one; a
missed arm surfaced only as a liveness stall under fault schedules.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.lint.report import Finding
from repro.lint.walker import ClassInfo, ModuleInfo, ProjectModel

RULE_ID = "MSG003"
SUMMARY = "message class without a dispatch arm / fault event outside EVENT_KINDS"
HISTORICAL_BUG = "PR 9: lease/read-index messages needed hand-tracked dispatch arms"

#: Where protocol message classes live.
MESSAGE_MODULE_SUFFIX = "consensus/messages.py"

#: Modules whose ``isinstance`` checks count as dispatch arms.
DISPATCH_MODULE_SUFFIXES = (
    "consensus/replicated_log.py",
    "consensus/stack.py",
)

#: Where the fault-event wire registry lives.
FAULTS_MODULE_SUFFIX = "faults.py"


# ------------------------------------------------------------------ messages --
def _dispatched_names(model: ProjectModel) -> Set[str]:
    """Class names appearing as the second argument of ``isinstance`` checks."""
    names: Set[str] = set()
    for module in model.modules.values():
        if not module.matches(*DISPATCH_MODULE_SUFFIXES):
            continue
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                continue
            spec = node.args[1]
            elements = spec.elts if isinstance(spec, ast.Tuple) else [spec]
            for element in elements:
                if isinstance(element, ast.Name):
                    names.add(element.id)
                elif isinstance(element, ast.Attribute):
                    names.add(element.attr)
    return names


def _message_findings(model: ProjectModel) -> List[Finding]:
    dispatched = _dispatched_names(model)
    findings = []
    for module in model.modules.values():
        if not module.matches(MESSAGE_MODULE_SUFFIX):
            continue
        for cls in module.classes.values():
            if "Message" not in cls.base_names:
                continue
            if cls.name not in dispatched:
                findings.append(
                    Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=cls.lineno,
                        symbol=cls.name,
                        message=(
                            f"message {cls.name} has no isinstance dispatch arm in "
                            "replicated_log.py/stack.py; receivers "
                            "drop it silently"
                        ),
                    )
                )
    return findings


# ------------------------------------------------------------------ fault events --
def _fault_event_classes(module: ModuleInfo) -> Dict[str, ClassInfo]:
    """``FaultEvent`` subclasses of *module*, transitively, excluding the root."""
    subclasses: Dict[str, ClassInfo] = {}
    grew = True
    while grew:
        grew = False
        for cls in module.classes.values():
            if cls.name in subclasses:
                continue
            if "FaultEvent" in cls.base_names or any(
                base in subclasses for base in cls.base_names
            ):
                subclasses[cls.name] = cls
                grew = True
    return subclasses


def _registered_names(module: ModuleInfo) -> Set[str]:
    """Class names registered as values of the ``EVENT_KINDS`` dict literal."""
    names: Set[str] = set()
    for node in module.tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "EVENT_KINDS"
            for target in targets
        ):
            continue
        if isinstance(value, ast.Dict):
            for entry in value.values:
                if isinstance(entry, ast.Name):
                    names.add(entry.id)
    return names


def _fault_findings(model: ProjectModel) -> List[Finding]:
    findings = []
    for module in model.modules.values():
        if not module.matches(FAULTS_MODULE_SUFFIX):
            continue
        registered = _registered_names(module)
        if not registered:
            continue  # No registry in this faults.py: nothing to cross-check.
        subclasses = _fault_event_classes(module)
        for name, cls in sorted(subclasses.items()):
            if name.startswith("_"):
                continue  # Private intermediates are not wire kinds.
            if name not in registered:
                findings.append(
                    Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=cls.lineno,
                        symbol=name,
                        message=(
                            f"FaultEvent subclass {name} is missing from "
                            "EVENT_KINDS; serialized plans cannot carry it"
                        ),
                    )
                )
            elif not any(
                decorator.rsplit(".", 1)[-1] == "dataclass"
                for decorator in cls.decorator_names
            ):
                findings.append(
                    Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=cls.lineno,
                        symbol=name,
                        message=(
                            f"registered fault event {name} is not a dataclass; "
                            "event_to_dict/event_from_dict walk dataclass fields "
                            "and would miss its state"
                        ),
                    )
                )
        for name in sorted(registered - set(subclasses)):
            findings.append(
                Finding(
                    rule=RULE_ID,
                    path=module.relpath,
                    line=1,
                    symbol=name,
                    message=(
                        f"EVENT_KINDS registers {name}, which is not a FaultEvent "
                        "subclass defined in this module"
                    ),
                )
            )
    return findings


def check(model: ProjectModel) -> List[Finding]:
    return _message_findings(model) + _fault_findings(model)

"""DET001 — determinism: wall clock / ambient randomness / unsorted-set folds / ad-hoc digests.

Seeded executions must be byte-identically reproducible (the run fingerprints
of :mod:`repro.fuzz` and the parallel-merge equality checks depend on it), so:

* all randomness flows through :class:`repro.util.rng.RandomSource` and all
  wall-clock reads through :mod:`repro.util.wallclock` — direct calls to
  ``random.*``, its C-level generator ``_random.*``, ``secrets.*``,
  ``time.time``/``monotonic``/``perf_counter``, ``datetime.now``,
  ``os.urandom`` or ``uuid.uuid1/uuid4`` anywhere else are findings, as is
  ``id()`` used inside a ``sorted``/``sort`` call (CPython addresses vary
  between runs);
* no function reachable from a fingerprint/digest/merge fold may iterate a
  set without sorting it first — string hashes are randomised per process, so
  set order is the classic source of fingerprint drift (dicts iterate in
  insertion order and are not flagged);
* "the same run" is decided by one digest, :func:`repro.util.rng.fingerprint`
  — a ``hashlib.*`` call outside the few modules that own a digest *format*
  (:data:`DIGEST_OWNER_SUFFIXES`) is a finding: a second canonical-JSON helper
  is a second definition of equality waiting to drift.

Historical bug: the PR 8 parallel merge had to be built order-independent by
hand; this rule keeps every later fold honest.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.report import Finding
from repro.lint.walker import FunctionInfo, ProjectModel, resolve_dotted

RULE_ID = "DET001"
SUMMARY = "ambient nondeterminism (wall clock, global RNG, unsorted-set folds, ad-hoc digests)"
HISTORICAL_BUG = (
    "hand-audited order independence of the PR 8 parallel merge and the fuzz "
    "run fingerprints"
)

#: Modules allowed to touch the ambient sources (the sanctioned wrappers).
ALLOWED_MODULE_SUFFIXES = ("util/rng.py", "util/wallclock.py")

#: Modules that own a digest format and so call ``hashlib`` themselves (the
#: ``util/rng.py`` home of ``fingerprint`` / ``derive_seed`` is allowed above).
DIGEST_OWNER_SUFFIXES = ("service/state_machine.py",)  # state digest

#: Dotted call names that leak wall-clock or process-random state.
BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Modules every one of whose calls draws from a generator outside RandomSource.
BANNED_MODULE_PREFIXES = ("random.", "_random.", "secrets.")

#: Function-name markers of fingerprint/digest/merge folds (rule scope (b)).
_FOLD_MARKERS = ("digest", "fingerprint", "merge")


# ------------------------------------------------------------------ part (a) --
def _banned_call_findings(model: ProjectModel) -> List[Finding]:
    findings = []
    for module in model.modules.values():
        if module.matches(*ALLOWED_MODULE_SUFFIXES):
            continue
        owns_digest = module.matches(*DIGEST_OWNER_SUFFIXES)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, module.imports)
            if dotted is None:
                continue
            if dotted in BANNED_CALLS or dotted.startswith(BANNED_MODULE_PREFIXES):
                findings.append(
                    Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=node.lineno,
                        symbol=dotted,
                        message=(
                            f"direct {dotted}() call; route randomness through "
                            "util/rng.py and wall-clock reads through "
                            "util/wallclock.py"
                        ),
                    )
                )
            elif dotted.startswith("hashlib.") and not owns_digest:
                findings.append(
                    Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=node.lineno,
                        symbol=dotted,
                        message=(
                            f"ad-hoc {dotted}() digest; fingerprint results "
                            "with util/rng.py's fingerprint()"
                        ),
                    )
                )
            elif dotted == "sorted" or dotted.endswith(".sort"):
                if _uses_id(node):
                    findings.append(
                        Finding(
                            rule=RULE_ID,
                            path=module.relpath,
                            line=node.lineno,
                            symbol="id-in-sort",
                            message=(
                                "id() used as a sort ingredient; object "
                                "addresses vary between runs"
                            ),
                        )
                    )
    return findings


def _uses_id(call: ast.Call) -> bool:
    """True when the builtin ``id`` appears anywhere in the call's arguments."""
    for argument in list(call.args) + [kw.value for kw in call.keywords]:
        for inner in ast.walk(argument):
            if isinstance(inner, ast.Name) and inner.id == "id":
                return True
    return False


# ------------------------------------------------------------------ part (b) --
def _set_typed_attrs(model: ProjectModel) -> Set[str]:
    attrs: Set[str] = set()
    for cls in model.iter_classes():
        attrs.update(cls.set_typed_attrs)
    return attrs


def _is_set_expr(node: ast.AST, local_sets: Set[str], set_attrs: Set[str]) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in local_sets
    if isinstance(node, ast.Attribute):
        # ``self.X`` / ``obj.X`` where any class in the project types X as a set.
        return node.attr in set_attrs
    return False


def _unsorted_set_sites(function: FunctionInfo, set_attrs: Set[str]) -> List[int]:
    """Line numbers iterating a set-valued expression outside ``sorted(...)``.

    Covers ``for`` loops and comprehension generators; a set handed to
    ``sorted``/``min``/``max``/``sum``/``len`` is order-insensitive and is
    naturally not flagged (those are calls, not iteration sites).
    """
    local_sets: Set[str] = set()
    for node in ast.walk(function.node):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value, local_sets, set_attrs):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local_sets.add(target.id)
    sites: List[int] = []
    for node in ast.walk(function.node):
        if isinstance(node, ast.For):
            iterables = [node.iter]
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            iterables = [gen.iter for gen in node.generators]
        else:
            continue
        for iterable in iterables:
            if _is_set_expr(iterable, local_sets, set_attrs):
                sites.append(iterable.lineno)
    return sites


def _fold_findings(model: ProjectModel) -> List[Finding]:
    roots = [
        function
        for function in model.iter_functions()
        if any(marker in function.name.lower() for marker in _FOLD_MARKERS)
    ]
    set_attrs = _set_typed_attrs(model)
    findings = []
    for function in sorted(
        model.reachable_functions(roots),
        key=lambda f: (f.module.relpath, f.lineno),
    ):
        for line in _unsorted_set_sites(function, set_attrs):
            findings.append(
                Finding(
                    rule=RULE_ID,
                    path=function.module.relpath,
                    line=line,
                    symbol=f"{function.qualname}:unsorted-set",
                    message=(
                        "set iterated without sorted() inside a function "
                        "reachable from a fingerprint/digest/merge fold"
                    ),
                )
            )
    return findings


def check(model: ProjectModel) -> List[Finding]:
    return _banned_call_findings(model) + _fold_findings(model)

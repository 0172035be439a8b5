"""Every import block is ordered as ruff's isort rule (I001) orders it.

CI's lint job runs ``ruff check .``, but ruff is no test dependency, so a
misordered import used to pass tier-1 and fail only there.  This check reads
each tracked file with :mod:`ast` and covers the part of I001 that this tree
uses, under ruff's default isort settings:

* sections in the order ``__future__``, standard library
  (``sys.stdlib_module_names``), third party, first party, relative;
* within a section, every ``import x`` before every ``from x import ...``;
* modules sorted by name, case-insensitively, digit runs as numbers;
* the names of one ``from`` import ordered constants, then classes, then
  the rest, each group sorted the same way.

An import block is a run of import statements in one statement list, so an
``if TYPE_CHECKING:`` body is a block of its own.  First-party names are
``known-first-party`` from ``pyproject.toml`` plus the packages and modules at
the repository root and in ``src/`` (ruff's ``src`` default).  Files under
``extend-exclude`` and those whose ``per-file-ignores`` entry names I001 (the
``__init__.py`` re-export hubs) are skipped, as ruff skips them.
"""

import ast
import re
import sys
from pathlib import PurePosixPath

from test_line_length import REPO_ROOT, ruff_settings, tracked_python_files

FUTURE, STDLIB, THIRD_PARTY, FIRST_PARTY, RELATIVE = range(5)
CONSTANT, CLASS, VARIABLE = range(3)


def natural_key(name):
    """Order names as ruff does: digit runs compare as numbers, and a digit
    run against any other character as one digit would."""
    return tuple(
        (ord("0"), int(token)) if token.isdigit() else (ord(token), 0)
        for token in re.findall(r"\d+|\D", name)
    )


def name_key(name):
    return natural_key(name.lower()), natural_key(name)


def member_key(alias):
    name = alias.name
    if len(name) > 1 and name.isupper():
        kind = CONSTANT
    elif name[:1].isupper():
        kind = CLASS
    else:
        kind = VARIABLE
    return name != "*", kind, name_key(name), alias.asname or ""


def first_party_names():
    """``known-first-party``, then every top-level package or module in the
    repository root and in ``src/``."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    names = set(ruff_settings(text, "tool.ruff.lint.isort").get("known-first-party", ()))
    for root in (REPO_ROOT, REPO_ROOT / "src"):
        for path in root.iterdir():
            if (path.is_dir() or path.suffix == ".py") and path.stem.isidentifier():
                names.add(path.stem)
    return names


def section(module, level, first_party):
    base = (module or "").split(".", 1)[0]
    if level:
        return RELATIVE
    if base == "__future__":
        return FUTURE
    if base in sys.stdlib_module_names:
        return STDLIB
    if base in first_party:
        return FIRST_PARTY
    return THIRD_PARTY


def import_keys(node, first_party):
    """The sort key of each import an import statement makes."""
    if isinstance(node, ast.Import):
        return [
            (section(alias.name, 0, first_party), 0, (0, name_key(alias.name)), (), alias.asname or "")
            for alias in node.names
        ]
    module = node.module or ""
    first = min(member_key(alias) for alias in node.names)
    return [(section(module, node.level, first_party), 1, (-node.level, name_key(module)), first, "")]


def import_blocks(tree):
    """Each run of consecutive import statements in one statement list."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            statements = getattr(node, field, None)
            if not isinstance(statements, list):
                continue
            block = []
            for statement in statements + [None]:
                if isinstance(statement, (ast.Import, ast.ImportFrom)):
                    block.append(statement)
                    continue
                if block:
                    yield block
                block = []


def misordered(source, first_party):
    """Line of the first out-of-order import of each misordered block, and of
    each ``from`` import whose names are out of order."""
    found = []
    for block in import_blocks(ast.parse(source)):
        keyed = [(key, node.lineno) for node in block for key in import_keys(node, first_party)]
        for (before, _), (key, line) in zip(keyed, keyed[1:]):
            if key < before:
                found.append(line)
                break
        for node in block:
            if isinstance(node, ast.ImportFrom):
                members = [member_key(alias) for alias in node.names]
                if members != sorted(members):
                    found.append(node.lineno)
    return sorted(set(found))


def checked_files():
    """Tracked files that ruff checks for I001, repo-relative."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    excluded = tuple(prefix.rstrip("/") + "/" for prefix in ruff_settings(text).get("extend-exclude", ()))
    ignores = ruff_settings(text, "tool.ruff.lint.per-file-ignores")
    exempt = [pattern for pattern, rules in ignores.items() if "I001" in rules]
    return [
        relative
        for relative in tracked_python_files()
        if not relative.startswith(excluded)
        and not any(PurePosixPath(relative).match(pattern) for pattern in exempt)
        and (REPO_ROOT / relative).exists()
    ]


def test_the_check_orders_sections_kinds_names_and_members():
    first_party = {"repro"}
    ordered = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from collections import OrderedDict, defaultdict\n"
        "from typing import TYPE_CHECKING, Any, cast\n"
        "import pytest\n"
        "from hypothesis import given\n"
        "import repro\n"
        "from repro.core import MAX_LEVEL, SuspicionLevels, elect\n"
        "from repro.lint.checkers import det2, det10\n"
        "from repro.Storage import Snapshot\n"
        "from repro.util import rng\n"
        "from . import sibling\n"
        "def f():\n"
        "    import zlib\n"
        "    import array\n"
    )
    assert misordered(ordered, first_party) == [16]
    for line, swapped in [
        (2, "import pytest\nimport os\n"),
        (2, "from os import path\nimport json\n"),
        (2, "from repro.storage import Snapshot\nfrom repro.simulation import corrupt\n"),
        (2, "from . import sibling\nimport repro\n"),
        (1, "from repro.analysis import round_clock, record_run\n"),
        (1, "from typing import Any, TYPE_CHECKING\n"),
        (1, "from typing import cast, Any\n"),
    ]:
        assert misordered(swapped, first_party) == [line], swapped


def test_first_party_names_come_from_pyproject_and_the_source_roots():
    names = first_party_names()
    assert {"repro", "_harness", "perfbench"} <= names


def test_every_tracked_import_block_is_in_ruff_order():
    first_party = first_party_names()
    files = checked_files()
    assert len(files) > 100
    assert not any(relative.endswith("__init__.py") for relative in files)
    found = [
        f"{relative}:{line}"
        for relative in files
        for line in misordered((REPO_ROOT / relative).read_text(encoding="utf-8"), first_party)
    ]
    assert found == []

#!/usr/bin/env python
"""Documentation consistency checks (run in tier-1 by ``tests/test_check_docs.py``).

Two classes of drift have bitten this repository before: markdown links that
point at files which were later moved, and the README's examples table falling
out of sync with ``examples/*.py``.  This script fails the build on either:

* every *relative* markdown link target in ``README.md`` and ``docs/*.md``
  must exist on disk (http(s) links and pure anchors are not checked — CI
  must not depend on the network);
* every ``examples/*.py`` script must be mentioned in the README's
  "Examples" table, and every script the table mentions must exist;
* the architecture guide's "Static analysis" rule table and the checkers
  registered in ``repro.lint`` must be in bijection — a new rule cannot land
  undocumented, and a documented rule must exist;
* every `` `path.py:Symbol` `` pointer in ``README.md`` and ``docs/*.md`` must
  name something that exists: ``path.py`` is a path suffix of the repo's
  ``.py`` files (lint fixtures excluded), and exactly one of those files
  defines ``Symbol`` (or ``Class.attr``) — as a ``def``, a class, a module or
  class-level assignment, or a ``self.attr =`` assignment in a method;
* every ``repro`` import in a ```` ```python ```` block of ``README.md`` and
  ``docs/*.md`` must resolve: the module imports and has the name (or the
  name is its submodule), so a snippet cannot keep naming a deleted API;
* every backticked dotted name `` `repro.pkg.name` `` (a call's arguments
  allowed) in ``README.md`` and ``docs/*.md`` must resolve the same way, with
  its last component as the name;
* every bare `` `Class.member` `` span (a call's arguments allowed) in
  ``README.md`` and ``docs/*.md`` whose ``Class`` is defined at the top level
  of exactly one ``src/repro`` file must name something that file defines on
  the class; spans naming any other class, or none, are skipped;
* every ``NAME.md`` a ``src/`` or ``benchmarks/`` Python file names must
  exist, at the repository root or under ``docs/`` (a path prefix allowed),
  so a docstring cannot send its reader to a document that was never written.

Usage::

    python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
# Run as a script without PYTHONPATH, make repro.lint importable anyway.
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Inline markdown links: [text](target); images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Example scripts referenced anywhere in a document.
_EXAMPLE_REF = re.compile(r"examples/([A-Za-z0-9_]+\.py)")


def check_links(path: Path) -> list:
    """Return 'broken link' error strings for relative link targets in *path*."""
    errors = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
    return errors


def _examples_table_rows(text: str) -> list:
    """The markdown table rows of the README's ``## Examples`` section."""
    in_section = False
    rows = []
    for line in text.splitlines():
        if line.startswith("## "):
            in_section = line.strip().lower() == "## examples"
            continue
        if in_section and line.lstrip().startswith("|"):
            rows.append(line)
    return rows


def check_examples_table(readme: Path) -> list:
    """The README examples *table* and the examples/ directory must agree.

    Completeness is checked against the table rows only — a prose mention
    elsewhere in the README must not mask a script missing from the table.
    Phantom references are checked document-wide, so stale prose fails too.
    """
    errors = []
    text = readme.read_text(encoding="utf-8")
    on_disk = {p.name for p in (REPO_ROOT / "examples").glob("*.py")}
    rows = _examples_table_rows(text)
    if not rows:
        return ['README.md: no "## Examples" section with a table found']
    in_table = set()
    for row in rows:
        in_table.update(_EXAMPLE_REF.findall(row))
    for missing in sorted(on_disk - in_table):
        errors.append(
            f"README.md: examples/{missing} exists but is not documented "
            "in the Examples table"
        )
    for phantom in sorted(set(_EXAMPLE_REF.findall(text)) - on_disk):
        errors.append(
            f"README.md: references examples/{phantom}, which does not exist"
        )
    return errors


#: Rule ids in the architecture guide's Static analysis table: `XXX000`.
_RULE_ID = re.compile(r"`([A-Z]{3}\d{3})`")


def _lint_rule_table_ids(architecture: Path) -> set:
    """Rule ids named in the first cell of the Static analysis table rows."""
    in_section = False
    ids = set()
    for line in architecture.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            in_section = line.strip().lower() == "## static analysis"
            continue
        if in_section and line.lstrip().startswith("|"):
            first_cell = line.split("|")[1] if line.count("|") >= 2 else ""
            ids.update(_RULE_ID.findall(first_cell))
    return ids


def check_lint_rule_table(architecture: Path) -> list:
    """The documented rule table and the registered checkers must agree."""
    from repro.lint import RULES

    documented = _lint_rule_table_ids(architecture)
    if not documented:
        return [
            'docs/ARCHITECTURE.md: no "## Static analysis" section with a '
            "rule table found"
        ]
    errors = []
    for missing in sorted(set(RULES) - documented):
        errors.append(
            f"docs/ARCHITECTURE.md: checker {missing} is registered in "
            "repro.lint but missing from the Static analysis rule table"
        )
    for phantom in sorted(documented - set(RULES)):
        errors.append(
            f"docs/ARCHITECTURE.md: rule table documents {phantom}, which is "
            "not a registered checker"
        )
    return errors


#: A code pointer: `path.py:Name` or `path.py:Class.attr`, optionally with a
#: call's arguments after the name.  One line only, like a code span.
_POINTER = re.compile(
    r"`([\w./-]+\.py):([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`\n]*\))?`"
)
#: The documents' own description of the pointer form.
_FORMAT_EXAMPLE = ("path.py", "Symbol")


def _python_files() -> List[str]:
    """Repo-relative paths of the ``.py`` files pointers may name."""
    files = []
    for path in REPO_ROOT.rglob("*.py"):
        parts = path.relative_to(REPO_ROOT).parts
        if any(part.startswith(".") or part in ("__pycache__", "fixtures") for part in parts):
            continue
        files.append("/".join(parts))
    return sorted(files)


def _scope_names(body: Iterable[ast.stmt]) -> Dict[str, Optional[ast.ClassDef]]:
    """Names a module or class body defines; a class maps to its node."""
    names: Dict[str, Optional[ast.ClassDef]] = {}
    for node in body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = None
    return names


def _class_names(node: ast.ClassDef) -> Dict[str, Optional[ast.ClassDef]]:
    """What ``Class.attr`` may name: the class body, plus ``self.attr =``
    assignments in its methods."""
    names = _scope_names(node.body)
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for statement in ast.walk(method):
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    names.setdefault(target.attr, None)
    return names


def defines(source: str, symbol: str) -> bool:
    """True when the module *source* defines the dotted *symbol*."""
    names = _scope_names(ast.parse(source).body)
    parts = symbol.split(".")
    for index, part in enumerate(parts):
        if part not in names:
            return False
        node = names[part]
        if index + 1 < len(parts):
            if node is None:
                return False
            names = _class_names(node)
    return True


def check_pointers(path: Path, files: Optional[List[str]] = None) -> list:
    """Return an error string for every `path.py:Symbol` pointer in *path*
    that names no file, no definition, or more than one."""
    files = _python_files() if files is None else files
    errors = []
    for pointer, symbol in _POINTER.findall(path.read_text(encoding="utf-8")):
        if (pointer, symbol) == _FORMAT_EXAMPLE:
            continue
        candidates = [f for f in files if f == pointer or f.endswith("/" + pointer)]
        defining = [
            f for f in candidates
            if defines((REPO_ROOT / f).read_text(encoding="utf-8"), symbol)
        ]
        if len(defining) == 1:
            continue
        if not candidates:
            problem = "no such file"
        elif not defining:
            problem = f"not defined in {', '.join(candidates)}"
        else:
            problem = f"ambiguous between {', '.join(defining)}"
        errors.append(f"{path.name}: unresolved pointer `{pointer}:{symbol}` ({problem})")
    return errors


#: A fenced ```python block of a document.
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _resolves(module: str, name: Optional[str]) -> bool:
    """True when ``import module`` (or ``from module import name``) works."""
    try:
        imported = importlib.import_module(module)
        if name is not None and not hasattr(imported, name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def check_snippet_imports(path: Path) -> list:
    """Return an error string for every ``repro`` import in a python block of
    *path* that does not resolve, and for every block that does not parse."""
    errors = []
    for block in _PYTHON_BLOCK.findall(path.read_text(encoding="utf-8")):
        try:
            tree = ast.parse(block)
        except SyntaxError as error:
            errors.append(f"{path.name}: python block does not parse ({error})")
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                imports = [(node.module, alias.name) for alias in node.names if alias.name != "*"]
            elif isinstance(node, ast.Import):
                imports = [(alias.name, None) for alias in node.names]
            else:
                continue
            for module, name in imports:
                if module.split(".")[0] != "repro" or _resolves(module, name):
                    continue
                statement = f"from {module} import {name}" if name else f"import {module}"
                errors.append(f"{path.name}: unresolved snippet import `{statement}`")
    return errors


#: A dotted name under ``repro`` in a code span, optionally with a call's
#: arguments after it: `repro.pkg.module` or `repro.pkg.module.name(args)`.
_DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\([^`\n]*\))?`")


def check_dotted_names(path: Path) -> list:
    """Return an error string for every `repro.*` name in *path* whose last
    component is neither an attribute nor a submodule of the rest."""
    errors = []
    for dotted in _DOTTED.findall(path.read_text(encoding="utf-8")):
        module, _, name = dotted.rpartition(".")
        if not _resolves(module, name):
            errors.append(f"{path.name}: unresolved name `{dotted}`")
    return errors


#: A bare member span: `Class.member`, optionally with a call's arguments.
_MEMBER = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\([^`\n]*\))?`")


def _repro_classes() -> Dict[str, List[str]]:
    """Class name -> the source of each ``src/repro`` file defining it at the
    top level."""
    classes: Dict[str, List[str]] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        for name, node in _scope_names(ast.parse(source).body).items():
            if node is not None:
                classes.setdefault(name, []).append(source)
    return classes


def check_members(path: Path, classes: Optional[Dict[str, List[str]]] = None) -> list:
    """Return an error string for every `Class.member` span in *path* whose
    class one ``src/repro`` file defines, without the member."""
    classes = _repro_classes() if classes is None else classes
    errors = []
    for cls, member in _MEMBER.findall(path.read_text(encoding="utf-8")):
        sources = classes.get(cls, [])
        if len(sources) == 1 and not defines(sources[0], f"{cls}.{member}"):
            errors.append(f"{path.name}: unresolved member `{cls}.{member}`")
    return errors


#: A markdown file named in Python source: ``NAME.md``, a path prefix allowed.
_MARKDOWN_NAME = re.compile(r"(?<![\w/.-])((?:[\w-]+/)*[\w-]+\.md)\b")


def check_markdown_names(path: Path) -> list:
    """Return an error string for every ``NAME.md`` the Python file *path*
    names that exists neither at the repository root nor under ``docs/``."""
    errors = []
    for name in sorted(set(_MARKDOWN_NAME.findall(path.read_text(encoding="utf-8")))):
        if not any((REPO_ROOT / base / name).exists() for base in (".", "docs")):
            errors.append(f"{path.name}: names {name}, which does not exist")
    return errors


def main() -> int:
    documents = [REPO_ROOT / "README.md", REPO_ROOT / "ROADMAP.md"]
    documents += sorted((REPO_ROOT / "docs").glob("*.md"))
    errors = []
    for document in documents:
        if document.exists():
            errors.extend(check_links(document))
    files = _python_files()
    classes = _repro_classes()
    for document in [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md")):
        errors.extend(check_pointers(document, files))
        errors.extend(check_snippet_imports(document))
        errors.extend(check_dotted_names(document))
        errors.extend(check_members(document, classes))
    sources = sorted((REPO_ROOT / "src").rglob("*.py"))
    for source in sources + sorted((REPO_ROOT / "benchmarks").glob("*.py")):
        errors.extend(check_markdown_names(source))
    errors.extend(check_examples_table(REPO_ROOT / "README.md"))
    errors.extend(check_lint_rule_table(REPO_ROOT / "docs" / "ARCHITECTURE.md"))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        print(f"\n{len(errors)} documentation problem(s)", file=sys.stderr)
        return 1
    checked = ", ".join(str(d.relative_to(REPO_ROOT)) for d in documents if d.exists())
    print(f"docs OK ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""No ``src/repro`` module imports a name it never uses (ruff rule F401).

CI's lint job runs ``ruff check .``, but neither ruff nor pyflakes is a test
dependency, so an unused import used to pass tier-1 and fail only there.
This check reads each module with :mod:`ast`.  An import counts as used when
its bound name is read anywhere in the scope it was bound in, appears in a
string annotation, or is listed in the module's ``__all__``.  The
``__init__.py`` re-export hubs are skipped, as ``pyproject.toml``'s
per-file ignores skip them for ruff.
"""

import ast
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _bound_names(node):
    """``(name, line)`` of each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    bound = []
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname is not None:
            bound.append(alias.asname)
        elif isinstance(node, ast.Import):
            bound.append(alias.name.split(".", 1)[0])
        else:
            bound.append(alias.name)
    return [(name, node.lineno) for name in bound]


def _annotation_names(annotation):
    """Names read by an annotation, including those inside string annotations."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed)
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree):
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    return {
                        item.value
                        for item in node.value.elts
                        if isinstance(item, ast.Constant) and isinstance(item.value, str)
                    }
    return set()


def _read_names(scope):
    """Every name read in *scope*'s subtree, annotations' strings included."""
    names = {
        node.id
        for node in ast.walk(scope)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(scope):
        names |= _annotation_names(annotation)
    return names


def unused_imports(source):
    """``(name, line)`` of each imported name *source* never uses."""
    tree = ast.parse(source)
    exported = _exported(tree)
    unused = []

    def visit(scope):
        imported = []
        for child in ast.iter_child_nodes(scope):
            walk(child, imported)
        if imported:
            read = _read_names(scope) | (exported if isinstance(scope, ast.Module) else set())
            unused.extend((name, line) for name, line in imported if name not in read)

    def walk(node, imported):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend(_bound_names(node))
        elif isinstance(node, _SCOPES):
            visit(node)
            return
        for child in ast.iter_child_nodes(node):
            walk(child, imported)

    visit(tree)
    return sorted(unused, key=lambda entry: entry[1])


def checked_modules():
    """Every ``src/repro`` module but the ``__init__.py`` re-export hubs."""
    return sorted(path for path in SOURCE_ROOT.rglob("*.py") if path.name != "__init__.py")


def test_the_check_sees_an_unused_import_and_forgives_the_used_ones():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "from collections import OrderedDict\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "from fractions import Fraction\n"
        "from array import array\n"
        "__all__ = ['Fraction']\n"
        "def f(x: 'Optional[Decimal]') -> List[int]:\n"
        "    import heapq\n"
        "    return os.path.join(x)\n"
        "def g():\n"
        "    return heapq\n"
    )
    assert unused_imports(source) == [("codec", 3), ("OrderedDict", 5), ("array", 9), ("heapq", 12)]


def test_src_modules_import_nothing_they_do_not_use():
    modules = checked_modules()
    assert len(modules) > 50
    found = [
        f"{path.relative_to(SOURCE_ROOT.parents[1])}:{line}: {name}"
        for path in modules
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []

"""Every tracked Python line fits ruff's ``line-length`` (rule E501).

CI's lint job runs ``ruff check .``, but ruff is no test dependency, so an
over-long line used to pass tier-1 and fail only there.  The limit and the
excluded paths are read from the ``[tool.ruff]`` table of ``pyproject.toml``
by a small reader of its ``key = value`` lines, since ``tomllib`` is missing
on Python 3.10.
"""

import ast
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def ruff_settings(text, table="tool.ruff"):
    """The one-line ``key = value`` entries of one table, ``[tool.ruff]`` by
    default; a quoted key is unquoted."""
    settings, in_table = {}, False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == f"[{table}]"
        elif in_table and "=" in line:
            key, value = line.split("=", 1)
            key = key.strip()
            if key.startswith('"'):
                key = ast.literal_eval(key)
            settings[key] = ast.literal_eval(value.strip())
    return settings


def tracked_python_files():
    """Repo-relative paths of the ``.py`` files git tracks (every ``.py``
    file outside hidden and cache directories when git is unavailable)."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "*.py"], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        listed = []
    if listed:
        return listed
    return [
        path.relative_to(REPO_ROOT).as_posix()
        for path in REPO_ROOT.rglob("*.py")
        if not any(part.startswith(".") or part == "__pycache__" for part in path.parts)
    ]


def test_the_reader_takes_the_ruff_table_only():
    text = (
        "[tool.ruff]\n"
        "line-length = 99  # a comment\n"
        'extend-exclude = ["a/b", "c"]\n'
        "[tool.ruff.lint]\n"
        'select = ["E"]\n'
    )
    assert ruff_settings(text) == {"line-length": 99, "extend-exclude": ["a/b", "c"]}
    assert ruff_settings(text, "tool.ruff.lint") == {"select": ["E"]}
    assert ruff_settings('[t]\n"**/x.py" = ["I001"]\n', "t") == {"**/x.py": ["I001"]}


def test_every_tracked_line_fits_the_configured_length():
    settings = ruff_settings((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    limit = settings["line-length"]
    excluded = tuple(prefix.rstrip("/") + "/" for prefix in settings.get("extend-exclude", ()))
    too_long = []
    for relative in tracked_python_files():
        path = REPO_ROOT / relative
        if relative.startswith(excluded) or not path.exists():
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            if len(line) > limit:
                too_long.append(f"{relative}:{number}: {len(line)} > {limit}")
    assert too_long == []

"""The documentation checker's `path.py:Symbol` pointer resolution."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_checker()


def test_the_repository_docs_check_clean():
    # Links, the examples table, the lint rule table and every
    # `path.py:Symbol` pointer: a rename that strands a pointer fails here.
    assert check_docs.main() == 0


class TestPointers:
    def test_a_good_pointer_passes_and_a_stale_one_is_reported(self, tmp_path):
        document = tmp_path / "GUIDE.md"
        document.write_text(
            "The stack is `consensus/stack.py:OmegaConsensusStack`; the\n"
            "retired multiplexer was `composition.py:CompositeProcess`.\n"
            "Pointers look like `path.py:Symbol`.\n",
            encoding="utf-8",
        )
        errors = check_docs.check_pointers(document)
        assert len(errors) == 1
        assert "`composition.py:CompositeProcess`" in errors[0]
        assert "not defined in src/repro/core/composition.py" in errors[0]

    def test_a_missing_file_and_an_ambiguous_one_are_reported(self, tmp_path):
        document = tmp_path / "GUIDE.md"
        document.write_text(
            "`nowhere.py:Thing` and `__init__.py:__all__`\n", encoding="utf-8"
        )
        problems = check_docs.check_pointers(document)
        assert "(no such file)" in problems[0]
        assert "ambiguous between" in problems[1]

    def test_what_counts_as_a_definition(self):
        source = (
            "LIMIT = 3\n"
            "def helper(): pass\n"
            "class Box:\n"
            "    size: int = 0\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "    def grow(self):\n"
            "        self.count: int = 1\n"
        )
        for symbol in ("LIMIT", "helper", "Box", "Box.size", "Box.items",
                       "Box.count", "Box.grow"):
            assert check_docs.defines(source, symbol), symbol
        for symbol in ("Box.missing", "helper.attr", "LIMIT.real", "items"):
            assert not check_docs.defines(source, symbol), symbol

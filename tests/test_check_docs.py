"""The documentation checker's name resolution: `path.py:Symbol` pointers,
snippet imports, backticked dotted `repro.*` names and `Class.member` spans."""

import importlib.util
from pathlib import Path

import pytest

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


class TestSnippetImports:
    def test_a_deleted_name_and_a_missing_module_are_reported(self, tmp_path):
        document = tmp_path / "GUIDE.md"
        document.write_text(
            "```python\n"
            "import json\n"
            "from repro.analysis import record_run, summarize_service\n"
            "from repro.simulation import parallel\n"
            "import repro.fuzz.executor\n"
            "import repro.nowhere\n"
            "```\n"
            "```bash\n"
            "python -c 'from repro.gone import thing'\n"
            "```\n"
            "Prose naming `from repro.gone import thing` is not a snippet.\n",
            encoding="utf-8",
        )
        assert check_docs.check_snippet_imports(document) == [
            "GUIDE.md: unresolved snippet import "
            "`from repro.analysis import summarize_service`",
            "GUIDE.md: unresolved snippet import `import repro.nowhere`",
        ]

    def test_a_block_that_does_not_parse_is_reported(self, tmp_path):
        document = tmp_path / "GUIDE.md"
        document.write_text("```python\nfrom repro import (\n```\n", encoding="utf-8")
        (problem,) = check_docs.check_snippet_imports(document)
        assert "python block does not parse" in problem


class TestDottedNames:
    @pytest.mark.parametrize(
        "text, unresolved",
        [
            ("`repro.simulation.faults`", []),
            ("`repro.analysis.metrics.reachable_components`", []),
            ("`repro.analysis.metrics.AvailabilitySampler`", ["repro.analysis.metrics.AvailabilitySampler"]),
            ("`repro.nowhere`", ["repro.nowhere"]),
            ("`repro.fuzz.executor.gone(service, clients)`", ["repro.fuzz.executor.gone"]),
            ("a bare `repro` and prose repro.gone.thing", []),
        ],
        ids=[
            "module",
            "attribute",
            "deleted_attribute",
            "missing_module",
            "call_form",
            "not_a_dotted_code_span",
        ],
    )
    def test_each_backticked_name_resolves_or_is_reported(self, tmp_path, text, unresolved):
        document = tmp_path / "GUIDE.md"
        document.write_text(text + "\n", encoding="utf-8")
        assert check_docs.check_dotted_names(document) == [
            f"GUIDE.md: unresolved name `{name}`" for name in unresolved
        ]


class TestMembers:
    @pytest.mark.parametrize(
        "text, unresolved",
        [
            ("`ReplicatedLog.on_learn` and `ShardedService.state_digests(shard)`", []),
            ("`ReplicatedLog.delivered_digest`", ["ReplicatedLog.delivered_digest"]),
            ("`collections.Counter`, `Counter.most_common()` and `Finding.gone`", []),
        ],
        ids=["resolving_member", "deleted_member", "not_one_repro_class"],
    )
    def test_each_member_of_a_repro_class_resolves_or_is_reported(self, tmp_path, text, unresolved):
        document = tmp_path / "GUIDE.md"
        document.write_text(text + "\n", encoding="utf-8")
        assert check_docs.check_members(document) == [
            f"GUIDE.md: unresolved member `{name}`" for name in unresolved
        ]


class TestMarkdownNames:
    def test_a_document_a_python_file_names_must_exist(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text(
            '"""See README.md, docs/ARCHITECTURE.md and FAULT_PLAYBOOK.md;\n'
            'the index was in DESIGN.md and the tables in EXPERIMENTS.md."""\n',
            encoding="utf-8",
        )
        assert check_docs.check_markdown_names(source) == [
            "module.py: names DESIGN.md, which does not exist",
            "module.py: names EXPERIMENTS.md, which does not exist",
        ]

    def test_no_source_or_benchmark_names_a_missing_document(self):
        sources = sorted((REPO_ROOT / "src").rglob("*.py"))
        sources += sorted((REPO_ROOT / "benchmarks").glob("*.py"))
        assert [e for path in sources for e in check_docs.check_markdown_names(path)] == []

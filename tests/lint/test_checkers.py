"""Fixture-corpus tests: every rule flags its seeded violation, spares the near-miss.

Each rule owns a miniature project tree under ``fixtures/<rule>/``: ``bad/``
contains exactly the violations the rule exists for, ``ok/`` the closest
constructs that must *not* be flagged (sorted folds, registry counter bumps,
tuple dispatch arms, slotted dataclasses, module-level workers).
"""

from pathlib import Path

import pytest

from repro.lint import build_model, run_checkers

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(rule: str, tree: str):
    model = build_model([FIXTURES / rule.lower() / tree])
    return run_checkers(model, select=[rule])


def symbols(findings):
    return sorted(finding.symbol for finding in findings)


class TestDET001:
    def test_bad_tree_is_flagged(self):
        found = symbols(findings_for("DET001", "bad"))
        assert found == [
            "hashlib.sha256",
            "id-in-sort",
            "merge_results:unsorted-set",
            "random.random",
            "time.time",
        ]

    def test_near_misses_stay_clean(self):
        assert findings_for("DET001", "ok") == []


class TestCNT002:
    def test_attribute_counter_is_flagged(self):
        found = findings_for("CNT002", "bad")
        assert symbols(found) == ["ToyReplicatedLog.orphan_drops"]
        assert "resets to zero on crash-recovery" in found[0].message

    def test_registry_bumps_and_state_stay_clean(self):
        # Every count is a self.counters[...] bump; current_round is
        # reassigned protocol state, not a counter.
        assert findings_for("CNT002", "ok") == []


class TestMSG003:
    def test_bad_tree_is_flagged(self):
        found = symbols(findings_for("MSG003", "bad"))
        assert found == ["Hiccup", "Pong", "Wobble"]

    def test_tuple_arms_and_private_intermediates_stay_clean(self):
        assert findings_for("MSG003", "ok") == []


class TestSLT004:
    def test_bad_tree_is_flagged(self):
        found = symbols(findings_for("SLT004", "bad"))
        assert found == ["ToyEvent", "ToyEvent.deferred:closure"]

    def test_slotted_classes_and_unscoped_modules_stay_clean(self):
        assert findings_for("SLT004", "ok") == []


class TestPKL005:
    def test_bad_tree_is_flagged(self):
        found = findings_for("PKL005", "bad")
        assert symbols(found) == [
            "ToyCampaign.run_bound:worker",
            "ToyCampaign.run_lambda:worker",
            "launch:worker",
            "launch_partial:worker",
        ]

    def test_module_level_workers_stay_clean(self):
        assert findings_for("PKL005", "ok") == []


class TestRegistry:
    def test_unknown_rule_id_is_rejected(self):
        model = build_model([FIXTURES / "pkl005" / "ok"])
        with pytest.raises(ValueError, match="unknown rule"):
            run_checkers(model, select=["NOPE999"])

    def test_findings_are_sorted_by_site(self):
        found = findings_for("DET001", "bad")
        assert found == sorted(
            found, key=lambda f: (f.path, f.line, f.rule, f.symbol)
        )

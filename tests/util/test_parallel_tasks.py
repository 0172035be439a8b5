"""Tests for the shared worker-pool helper (:mod:`repro.util.parallel`).

The helper is the one place both the fuzz campaign and the parallel shard
executor set up their pools, so its contract — order-preserving, inline and
pool paths element-wise identical — is what makes those subsystems
worker-count-independent.
"""

import pytest

from repro.util.parallel import run_tasks


def _square(payload):
    """Module-level worker (pool start methods cannot pickle locals)."""
    return {"index": payload["index"], "value": payload["value"] ** 2}


def _payloads(count):
    return [{"index": index, "value": index + 1} for index in range(count)]


class TestRunTasksInline:
    def test_inline_is_a_plain_ordered_map(self):
        results = run_tasks(_square, _payloads(5), workers=0)
        assert results == [_square(p) for p in _payloads(5)]

    def test_workers_one_stays_inline(self):
        assert run_tasks(_square, _payloads(3), workers=1) == [
            _square(p) for p in _payloads(3)
        ]

    def test_single_payload_stays_inline_even_with_workers(self):
        # A one-task pool would only add start-up latency; the helper
        # short-circuits, and the result must be identical anyway.
        assert run_tasks(_square, _payloads(1), workers=4) == [
            _square(p) for p in _payloads(1)
        ]

    def test_empty_task_list(self):
        assert run_tasks(_square, [], workers=4) == []

    @pytest.mark.parametrize("workers", [-1, -2])
    def test_a_negative_worker_count_is_rejected(self, workers):
        # It used to run inline and be reported as given.
        with pytest.raises(ValueError, match="workers must be >= 0"):
            run_tasks(_square, _payloads(3), workers=workers)


class TestRunTasksPool:
    def test_pool_matches_inline_element_wise(self):
        payloads = _payloads(6)
        inline = run_tasks(_square, payloads, workers=0)
        pooled = run_tasks(_square, payloads, workers=2)
        assert pooled == inline

    def test_pool_preserves_task_order(self):
        payloads = _payloads(8)
        results = run_tasks(_square, payloads, workers=3)
        assert [result["index"] for result in results] == list(range(8))

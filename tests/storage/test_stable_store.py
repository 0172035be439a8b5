"""Unit tests for the stable-storage subsystem (store, registry, cost model)."""

import pytest

from repro.storage import StableStorage, StableStore, WriteCostModel


class TestWriteCostModel:
    def test_flat_cost(self):
        model = WriteCostModel(per_write=0.25)
        assert model.cost(("acceptor", 0), (3, "A")) == pytest.approx(0.25)

    def test_per_byte_cost_scales_with_value_size(self):
        model = WriteCostModel(per_write=0.0, per_byte=0.1)
        small = model.cost(("decided", 0), "x")
        large = model.cost(("decided", 0), "x" * 100)
        assert large > small > 0.0

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            WriteCostModel(per_write=-1.0)
        with pytest.raises(ValueError):
            WriteCostModel(per_byte=-0.1)


class TestStableStore:
    def test_put_get_roundtrip_and_counters(self):
        store = StableStore(pid=1)
        assert store.get(("acceptor", 0)) is None
        store.put(("acceptor", 0), (3, "A"))
        assert store.get(("acceptor", 0)) == (3, "A")
        assert ("acceptor", 0) in store
        assert store.writes == 1
        assert store.reads == 2
        assert len(store) == 1

    def test_overwrite_keeps_one_entry_but_counts_both_writes(self):
        store = StableStore(pid=0)
        store.put(("acceptor", 0), (3, "A"))
        store.put(("acceptor", 0), (5, "B"))
        assert len(store) == 1
        assert store.writes == 2
        assert store.get(("acceptor", 0)) == (5, "B")

    def test_items_with_prefix_sorted_by_position(self):
        store = StableStore(pid=0)
        store.put(("decided", 2), "c")
        store.put(("decided", 0), "a")
        store.put(("acceptor", 1), (3, "b"))
        store.put(("decided", 1), "b")
        store.put(("promised",), 3)
        assert store.items_with_prefix("decided") == [
            (("decided", 0), "a"),
            (("decided", 1), "b"),
            (("decided", 2), "c"),
        ]
        assert store.items_with_prefix("promised") == [(("promised",), 3)]
        assert store.items_with_prefix("snapshot") == []

    def test_cost_model_charges_through_bound_callback(self):
        charged = []
        store = StableStore(pid=0, cost_model=WriteCostModel(per_write=0.5))
        store.bind_charge(charged.append)
        store.put(("decided", 0), "a")
        store.put(("decided", 1), "b")
        assert charged == [pytest.approx(0.5)] * 2
        assert store.total_cost == pytest.approx(1.0)

    def test_free_writes_never_invoke_the_callback(self):
        charged = []
        store = StableStore(pid=0)
        store.bind_charge(charged.append)
        store.put(("decided", 0), "a")
        assert charged == []
        assert store.total_cost == 0.0


class TestStableStorage:
    def test_store_for_is_stable_per_pid(self):
        storage = StableStorage()
        assert storage.store_for(2) is storage.store_for(2)
        assert storage.store_for(0) is not storage.store_for(1)

    def test_aggregation_across_stores(self):
        storage = StableStorage(cost_model=WriteCostModel(per_write=1.0))
        storage.store_for(0).put(("decided", 0), "a")
        storage.store_for(1).put(("decided", 0), "a")
        storage.store_for(1).put(("decided", 1), "b")
        assert storage.total_writes == 3
        assert storage.total_cost == pytest.approx(3.0)
        assert [store.pid for store in storage.stores()] == [0, 1]

    def test_cost_model_is_shared_with_created_stores(self):
        model = WriteCostModel(per_write=0.25)
        storage = StableStorage(cost_model=model)
        assert storage.store_for(0).cost_model is model
        assert "stable-storage" in storage.describe()

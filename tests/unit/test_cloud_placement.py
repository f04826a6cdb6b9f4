"""Unit tests for the placement policy (columnar fleet-store API)."""

import numpy as np
import pytest

from repro.cloud.placement import PlacementPolicy, PlacementRequest
from repro.errors import NoCapacityError
from repro.fleet import FleetStore


def make_policy(seed=0):
    return PlacementPolicy(np.random.default_rng(seed))


def make_store(host_ids, capacity=160.0, load=None):
    store = FleetStore(host_ids, capacity_slots=capacity)
    if load:
        for host_id, slots in load.items():
            store.load_slots[store.index_of(host_id)] = slots
    return store


def simple_request(store, count, hosts=None, slots=1.0, **kwargs):
    allowed = store.indices_of(hosts if hosts is not None else store.ids)
    return PlacementRequest(
        count=count, slots_per_instance=slots, allowed=allowed, **kwargs
    )


def place_ids(policy, store, request):
    """Place and translate chosen indices back to host ids."""
    return [store.host_id(int(i)) for i in policy.place(request, store)]


class TestPlacement:
    def test_spreads_near_uniformly(self):
        """Observation 1: instances spread near-uniformly over hosts."""
        store = make_store([f"h{i}" for i in range(10)], capacity=1000.0)
        placed = place_ids(make_policy(), store, simple_request(store, 105))
        counts = {h: placed.count(h) for h in store.ids}
        assert set(counts.values()) <= {10, 11}

    def test_exact_division_is_uniform(self):
        store = make_store(["a", "b", "c"], capacity=100.0)
        placed = place_ids(make_policy(), store, simple_request(store, 9))
        assert all(placed.count(h) == 3 for h in store.ids)

    def test_respects_capacity(self):
        store = make_store(["full", "free"], capacity=10.0, load={"full": 9.5})
        placed = place_ids(make_policy(), store, simple_request(store, 5))
        assert placed.count("full") == 0
        assert placed.count("free") == 5

    def test_updates_load_in_place(self):
        store = make_store(["a"], capacity=100.0)
        make_policy().place(simple_request(store, 4), store)
        assert store.load_slots[store.index_of("a")] == 4.0

    def test_no_capacity_raises(self):
        store = make_store(["a"], capacity=2.0)
        with pytest.raises(NoCapacityError):
            make_policy().place(simple_request(store, 3), store)

    def test_empty_allowed_set_raises(self):
        store = make_store(["a"])
        with pytest.raises(NoCapacityError):
            make_policy().place(simple_request(store, 1, hosts=[]), store)

    def test_prefers_hosts_with_fewer_service_instances(self):
        store = make_store(["crowded", "empty"], capacity=100.0)
        request = simple_request(store, 1, allowed_counts=np.array([5, 0]))
        assert place_ids(make_policy(), store, request) == ["empty"]

    def test_ignores_other_services_load(self):
        """Spreading keys on the service's own counts, not total host load:
        a host crowded by *other* tenants is still a fair target."""
        store = make_store(["busy", "quiet"], capacity=100.0, load={"busy": 50.0})
        placed = place_ids(make_policy(), store, simple_request(store, 10))
        assert placed.count("busy") == 5
        assert placed.count("quiet") == 5

    def test_slots_scale_with_container_size(self):
        store = make_store(["a"], capacity=100.0)
        make_policy().place(simple_request(store, 2, slots=4.0), store)
        assert store.load_slots[store.index_of("a")] == 8.0

    def test_scatter_targets_outside_allowed_set(self):
        scatter_ids = [f"s{i}" for i in range(50)]
        store = make_store(["base"] + scatter_ids, capacity=1000.0)
        request = simple_request(
            store,
            200,
            hosts=["base"],
            scatter_probability=0.5,
            scatter_candidates=store.indices_of(scatter_ids),
        )
        placed = place_ids(make_policy(), store, request)
        scattered = [h for h in placed if h != "base"]
        assert 50 < len(scattered) < 150  # ~50% of 200

    def test_zero_scatter_probability_never_scatters(self):
        store = make_store(["base", "other"], capacity=100.0)
        request = simple_request(
            store,
            50,
            hosts=["base"],
            scatter_probability=0.0,
            scatter_candidates=store.indices_of(["other"]),
        )
        assert set(place_ids(make_policy(), store, request)) == {"base"}

    def test_scatter_falls_back_to_allowed_when_targets_full(self):
        store = make_store(["base", "tiny"], capacity=100.0)
        store.capacity_slots[store.index_of("tiny")] = 0.0
        request = simple_request(
            store,
            10,
            hosts=["base"],
            scatter_probability=1.0,
            scatter_candidates=store.indices_of(["tiny"]),
        )
        assert set(place_ids(make_policy(), store, request)) == {"base"}

    def test_deterministic_given_seed(self):
        def run():
            store = make_store([f"h{i}" for i in range(7)], capacity=100.0)
            return place_ids(make_policy(seed=3), store, simple_request(store, 20))

        assert run() == run()

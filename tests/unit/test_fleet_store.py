"""Unit tests for the columnar fleet store."""

import numpy as np
import pytest

from repro.errors import CloudError
from repro.fleet import FleetStore


def make_store(n=10, capacity=160.0, **kwargs):
    return FleetStore([f"h{i}" for i in range(n)], capacity_slots=capacity, **kwargs)


class TestIdentity:
    def test_index_mapping_is_positional(self):
        store = make_store(5)
        assert [store.index_of(f"h{i}") for i in range(5)] == list(range(5))
        assert [store.host_id(i) for i in range(5)] == [f"h{i}" for i in range(5)]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(CloudError):
            FleetStore(["a", "b", "a"])

    def test_unknown_host_raises(self):
        with pytest.raises(CloudError):
            make_store().index_of("nope")

    def test_indices_of_preserves_order(self):
        store = make_store(6)
        idx = store.indices_of(["h4", "h0", "h2"])
        assert idx.tolist() == [4, 0, 2]
        assert store.ids_of(idx) == ("h4", "h0", "h2")

    def test_capacity_scalar_broadcasts(self):
        store = make_store(4, capacity=42.0)
        assert store.capacity_slots.tolist() == [42.0] * 4

    def test_capacity_sequence_kept(self):
        store = FleetStore(["a", "b"], capacity_slots=[1.0, 2.0])
        assert store.capacity_slots.tolist() == [1.0, 2.0]

    def test_mask_for_ids(self):
        store = make_store(4)
        assert store.mask_for_ids(["h1", "h3"]).tolist() == [
            False, True, False, True,
        ]


class TestPoolAndRotation:
    def test_set_pool_orders(self):
        store = make_store(6)
        store.set_pool(np.array([4, 1, 5]))
        assert store.pool_order.tolist() == [4, 1, 5]
        # Rotated-out hosts are the complement in ascending index order.
        assert store.rotated_order.tolist() == [0, 2, 3]
        assert store.in_pool.tolist() == [False, True, False, False, True, True]

    def test_rotate_swaps_and_preserves_order(self):
        store = make_store(6)
        store.set_pool(np.array([4, 1, 5]))
        # Swap pool position 1 (host 1) with rotated position 2 (host 3).
        store.rotate(np.array([1]), np.array([2]))
        assert store.pool_order.tolist() == [4, 5, 3]
        assert store.rotated_order.tolist() == [0, 2, 1]
        assert store.in_pool.sum() == 3

    def test_pool_version_bumps_on_change(self):
        store = make_store(6)
        v0 = store.pool_version
        store.set_pool(np.array([0, 1, 2]))
        v1 = store.pool_version
        store.rotate(np.array([0]), np.array([0]))
        assert v0 < v1 < store.pool_version


class TestShards:
    def test_assignment_follows_pool_order(self):
        store = make_store(8)
        store.set_pool(np.array([7, 2, 5, 0]))
        store.assign_shards(shard_size=2, n_shards=2)
        assert store.n_shards == 2
        assert store.shard_members(0).tolist() == [7, 2]
        assert store.shard_members(1).tolist() == [5, 0]
        assert store.shard_index[7] == 0 and store.shard_index[0] == 1
        assert store.shard_index[1] == -1

    def test_out_of_range_raises(self):
        store = make_store(4)
        store.set_pool(np.array([0, 1]))
        store.assign_shards(shard_size=2, n_shards=1)
        with pytest.raises(CloudError):
            store.shard_members(1)

    def test_membership_pinned_across_rotation(self):
        store = make_store(6)
        store.set_pool(np.array([0, 1, 2, 3]))
        store.assign_shards(shard_size=2, n_shards=2)
        before = [store.shard_members(i).tolist() for i in range(2)]
        store.rotate(np.array([0]), np.array([0]))
        after = [store.shard_members(i).tolist() for i in range(2)]
        assert before == after


class TestLoadAndServiceCounts:
    def test_add_and_release(self):
        store = make_store(2)
        store.add_load(1, 3.0)
        store.add_load(1, 2.0)
        store.release_load(1, 4.0)
        assert store.load_slots.tolist() == [0.0, 1.0]

    def test_release_clamps_at_zero(self):
        store = make_store(1)
        store.add_load(0, 1.0)
        store.release_load(0, 5.0)
        assert store.load_slots[0] == 0.0

    def test_batched_release_matches_per_entry_calls(self):
        hosts = np.array([2, 0, 2, 2, 1])
        slots = np.array([0.7, 5.0, 0.1, 0.3, 0.2])
        batched, scalar = make_store(3), make_store(3)
        for store in (batched, scalar):
            store.load_slots[:] = [0.9, 4.0, 1.0]
        batched.release_load_at(hosts, slots)
        for host, slot in zip(hosts.tolist(), slots.tolist()):
            scalar.release_load(host, slot)
        # Host 0 clamps at zero.
        assert batched.load_slots.tolist() == scalar.load_slots.tolist()
        assert batched.load_slots[0] == 0.0

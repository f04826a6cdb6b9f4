"""Unit tests for the datacenter (fleet, serving pool, shards)."""

import pytest

from repro.cloud.datacenter import DataCenter
from repro.errors import CloudError
from repro.simtime.clock import SimClock

from tests.conftest import tiny_profile


def make_dc(seed=1, **overrides):
    clock = SimClock()
    return DataCenter(tiny_profile(**overrides), clock, seed=seed), clock


class TestDataCenter:
    def test_fleet_size_matches_profile(self):
        dc, _clock = make_dc()
        assert len(dc.hosts) == dc.profile.n_hosts

    def test_serving_pool_size(self):
        dc, _clock = make_dc()
        assert len(dc.serving_pool()) == dc.profile.active_hosts

    def test_serving_pool_is_subset_of_fleet(self):
        dc, _clock = make_dc()
        fleet_ids = {h.host_id for h in dc.hosts}
        assert set(dc.serving_pool()) <= fleet_ids

    def test_host_lookup(self):
        dc, _clock = make_dc()
        host = dc.hosts[0]
        assert dc.host(host.host_id) is host

    def test_unknown_host_rejected(self):
        dc, _clock = make_dc()
        with pytest.raises(CloudError):
            dc.host("nope")

    def test_shards_partition_initial_pool(self):
        dc, _clock = make_dc()
        all_shard_hosts = []
        for i in range(dc.profile.n_shards):
            all_shard_hosts.extend(dc.shard_hosts(i))
        assert len(all_shard_hosts) == len(set(all_shard_hosts))
        assert len(all_shard_hosts) == dc.profile.n_shards * dc.profile.shard_size

    def test_shard_out_of_range(self):
        dc, _clock = make_dc()
        with pytest.raises(CloudError):
            dc.shard_hosts(dc.profile.n_shards)

    def test_pinned_accounts_map_to_plan_shards(self):
        dc, _clock = make_dc()
        assert dc.shard_for_account("account-1") == 0
        assert dc.shard_for_account("account-2") == 1

    def test_unknown_account_hashes_deterministically(self):
        dc1, _ = make_dc(seed=1)
        dc2, _ = make_dc(seed=2)
        assert dc1.shard_for_account("stranger") == dc2.shard_for_account("stranger")
        assert 0 <= dc1.shard_for_account("stranger") < dc1.profile.n_shards

    def test_dynamism_zero_outside_dynamic_regions(self):
        dc, _clock = make_dc()
        assert dc.dynamism_for_account("account-2") == 0.0

    def test_dynamism_in_dynamic_region(self):
        dc, _clock = make_dc(dynamic_placement=True, default_dynamism=0.3)
        assert dc.dynamism_for_account("unpinned-account") == 0.3


class TestRotation:
    def test_pool_rotates_over_time(self):
        dc, clock = make_dc(rotation_fraction=0.2)
        before = set(dc.serving_pool())
        clock.sleep(dc.profile.rotation_period * 5)
        after = set(dc.serving_pool())
        assert before != after
        assert len(after) == len(before)

    def test_no_rotation_before_period(self):
        dc, clock = make_dc(rotation_fraction=0.2)
        before = set(dc.serving_pool())
        clock.sleep(dc.profile.rotation_period * 0.5)
        assert set(dc.serving_pool()) == before

    def test_rotation_eventually_reveals_most_hosts(self):
        dc, clock = make_dc(rotation_fraction=0.2)
        seen = set(dc.serving_pool())
        for _ in range(40):
            clock.sleep(dc.profile.rotation_period)
            seen |= set(dc.serving_pool())
        assert len(seen) > 0.9 * dc.profile.n_hosts

    def test_shards_stay_fixed_under_rotation(self):
        dc, clock = make_dc(rotation_fraction=0.2)
        shard0_before = dc.shard_hosts(0)
        clock.sleep(dc.profile.rotation_period * 10)
        dc.serving_pool()
        assert dc.shard_hosts(0) == shard0_before

    def test_pool_ids_cached_until_rotation(self):
        dc, clock = make_dc(rotation_fraction=0.2)
        first = dc.serving_pool()
        assert first == dc.fleet.ids_of(dc.fleet.pool_order)
        assert dc.serving_pool() is first  # cache hit, same tuple
        clock.sleep(dc.profile.rotation_period)
        rotated = dc.serving_pool()
        assert rotated is not first and rotated != first
        assert rotated == dc.fleet.ids_of(dc.fleet.pool_order)

    def test_shard_ids_cached(self):
        dc, clock = make_dc(rotation_fraction=0.2)
        shard = dc.shard_hosts(1)
        assert shard == dc.fleet.ids_of(dc.fleet.shard_members(1))
        clock.sleep(dc.profile.rotation_period)
        dc.serving_pool()
        assert dc.shard_hosts(1) is shard

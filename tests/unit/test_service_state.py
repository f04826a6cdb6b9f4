"""Unit tests for the columnar per-service state counts.

Covers the :class:`~repro.fleet.ServiceStateStore` in isolation and its
consistency with the orchestrator's per-instance lists: the store is the
hot-path read the background-traffic engine trusts instead of rebuilding
Python lists, so every instance lifecycle transition must keep the two
views equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.fleet import InstanceState
from repro.cloud.services import ServiceConfig
from repro.fleet import ServiceStateStore


class TestServiceStateStore:
    def test_ensure_registers_once(self):
        store = ServiceStateStore()
        index = store.ensure("a/svc")
        assert store.ensure("a/svc") == index
        assert store.n_services == 1
        assert store.index_of("a/svc") == index
        assert store.key_of(index) == "a/svc"

    def test_index_of_unknown_key_raises(self):
        with pytest.raises(KeyError):
            ServiceStateStore().index_of("nobody/svc")

    def test_columns_grow_past_initial_capacity(self):
        store = ServiceStateStore()
        for i in range(200):
            store.on_created(store.ensure(f"acct-{i}/svc"), count=i)
        assert store.n_services == 200
        assert store.active_count(store.index_of("acct-150/svc")) == 150

    def test_transition_arithmetic(self):
        store = ServiceStateStore()
        index = store.ensure("a/svc")
        store.on_created(index, count=3)
        assert (store.active_count(index), store.idle_count(index)) == (3, 0)
        store.on_idled(index)
        store.on_idled(index)
        assert (store.active_count(index), store.idle_count(index)) == (1, 2)
        store.on_activated(index)
        assert (store.active_count(index), store.idle_count(index)) == (2, 1)
        store.on_terminated(index, was_active=True)
        store.on_terminated(index, was_active=False)
        assert (store.active_count(index), store.idle_count(index)) == (1, 0)
        assert store.alive_count(index) == 1

    def test_active_for_is_a_fancy_index(self):
        store = ServiceStateStore()
        for i, count in enumerate((4, 0, 9)):
            store.on_created(store.ensure(f"acct-{i}/svc"), count=count)
        out = store.active_for(np.asarray([2, 0], dtype=np.int64))
        assert out.tolist() == [9, 4]

    def test_totals_span_all_services(self):
        store = ServiceStateStore()
        a = store.ensure("a/svc")
        b = store.ensure("b/svc")
        store.on_created(a, count=2)
        store.on_created(b, count=3)
        store.on_idled(b)
        assert store.totals() == (4, 1)


def assert_counts_match(orch, service):
    """The columnar counts must equal a brute-force instance-list scan."""
    state = orch.service_state
    index = state.index_of(service.qualified_name)
    alive = orch.alive_instances(service)
    active = sum(1 for i in alive if i.state is InstanceState.ACTIVE)
    idle = sum(1 for i in alive if i.state is InstanceState.IDLE)
    assert state.active_count(index) == active
    assert state.idle_count(index) == idle
    assert state.alive_count(index) == len(alive)


class TestOrchestratorConsistency:
    def test_counts_through_full_lifecycle(self, tiny_env):
        orch = tiny_env.orchestrator
        service = orch.deploy_service(
            "account-1", ServiceConfig(name="svc", max_instances=100)
        )
        assert_counts_match(orch, service)

        orch.connect(service, 12)
        assert_counts_match(orch, service)

        orch.scale_to(service, 5)  # scale in: 7 instances idle out
        assert_counts_match(orch, service)

        orch.scale_to(service, 9)  # reuse idles, no new creations needed
        assert_counts_match(orch, service)

        orch.disconnect(service)
        assert_counts_match(orch, service)

        # Let the idle reaper terminate everything.
        tiny_env.clock.sleep(2 * units.HOUR)
        assert_counts_match(orch, service)
        assert orch.service_state.alive_count(
            orch.service_state.index_of(service.qualified_name)
        ) == 0

    def test_counts_after_kill_service(self, tiny_env):
        orch = tiny_env.orchestrator
        service = orch.deploy_service(
            "account-1", ServiceConfig(name="svc", max_instances=50)
        )
        orch.connect(service, 10)
        orch.scale_to(service, 4)
        orch.kill_service(service)
        assert_counts_match(orch, service)
        assert orch.alive_count(service) == 0

    def test_counts_with_partial_reaps(self, tiny_env):
        orch = tiny_env.orchestrator
        service = orch.deploy_service(
            "account-1", ServiceConfig(name="svc", max_instances=50)
        )
        orch.connect(service, 8)
        orch.scale_to(service, 2)
        profile = orch.datacenter.profile
        # Sleep into the reap window: some idles are gone, some remain.
        orch.clock.sleep((profile.idle_grace + profile.idle_deadline) / 2)
        assert_counts_match(orch, service)

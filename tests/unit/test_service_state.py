"""Unit tests for the columnar per-service state counts.

Covers the service-key index, ACTIVE/IDLE count columns and per-host
counts of :class:`~repro.fleet.InstanceStore` in isolation, and their
consistency with the orchestrator's per-instance lists: the counts are
the hot-path reads the background-traffic engine and placement trust
instead of rebuilding Python lists, so every instance lifecycle
transition must keep the two views equal.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import units
from repro.cloud.services import ServiceConfig
from repro.fleet import InstanceState, InstanceStore
from repro.sandbox.gvisor import GVisorSandbox
from repro.simtime.clock import SimClock

from tests.conftest import make_host


def make_store():
    return InstanceStore(SimClock(), [make_host()])


def launch(store, key, count):
    """Launch ``count`` ACTIVE rows for ``key``; returns (index, rows)."""
    index = store.service_index(key)
    start = store.n_rows
    zeros = np.zeros(count, dtype=np.int64)
    ids = [f"i-{row}" for row in range(start, start + count)]
    store.launch(index, zeros, ids, zeros, 0.0, 0.0, GVisorSandbox)
    return index, np.arange(start, start + count)


class TestServiceStateStore:
    """The per-service counts kept by the instance store."""

    def test_ensure_registers_once(self):
        store = make_store()
        index = store.service_index("a/svc")
        assert store.service_index("a/svc") == index
        assert store.index_of("a/svc") == index
        assert store.key_of(index) == "a/svc"

    def test_index_of_unknown_key_raises(self):
        with pytest.raises(KeyError):
            make_store().index_of("nobody/svc")

    def test_columns_grow_past_initial_capacity(self):
        store = make_store()
        for i in range(200):
            launch(store, f"acct-{i}/svc", i)
        assert store.key_of(199) == "acct-199/svc"
        assert store.active_count(store.index_of("acct-150/svc")) == 150
        assert store.totals() == (sum(range(200)), 0)

    def test_transition_arithmetic(self):
        store = make_store()
        index, rows = launch(store, "a/svc", 3)
        assert (store.active_count(index), store.idle_count(index)) == (3, 0)
        store.idle(index, rows[:1], 1.0)
        store.idle(index, rows[1:2], 1.0)
        assert (store.active_count(index), store.idle_count(index)) == (1, 2)
        store.activate(index, rows[1:2], 2.0)
        assert (store.active_count(index), store.idle_count(index)) == (2, 1)
        # One ACTIVE and one IDLE row in a single batch.
        store.terminate(rows[[2, 0]], 3.0)
        assert (store.active_count(index), store.idle_count(index)) == (1, 0)
        assert store.alive_count(index) == 1

    def test_active_for_is_a_fancy_index(self):
        store = make_store()
        for i, count in enumerate((4, 0, 9)):
            launch(store, f"acct-{i}/svc", count)
        out = store.active_for(np.asarray([2, 0], dtype=np.int64))
        assert out.tolist() == [9, 4]

    def test_totals_span_all_services(self):
        store = make_store()
        launch(store, "a/svc", 2)
        b, rows = launch(store, "b/svc", 3)
        store.idle(b, rows[:1], 1.0)
        assert store.totals() == (4, 1)

    def test_host_counts_edge_cases(self):
        store = InstanceStore(SimClock(), [make_host(f"h{i}") for i in range(4)])
        index = store.service_index("a/svc")
        empty = store.service_index("b/svc")
        hosts = np.array([2, 0, 2, 2], dtype=np.int64)
        ids = [f"i-{row}" for row in range(hosts.size)]
        seeds = np.zeros(hosts.size, dtype=np.int64)
        store.launch(index, hosts, ids, seeds, 0.0, 0.0, GVisorSandbox)
        query = np.array([2, 3, 0, 2, 1], dtype=np.int64)  # host 2 asked twice
        assert store.host_counts(index, query).tolist() == [3, 0, 1, 3, 0]
        assert store.host_counts(empty, query).tolist() == [0, 0, 0, 0, 0]
        store.terminate(np.array([0, 1]), 1.0)
        assert store.host_counts(index, query).tolist() == [2, 0, 0, 2, 0]
        assert store.host_counts(index, query[:0]).tolist() == []


def assert_counts_match(orch, service):
    """The columnar counts must equal a brute-force instance-list scan."""
    state = orch.instance_store
    index = state.index_of(service.qualified_name)
    alive = orch.alive_instances(service)
    active = sum(1 for i in alive if i.state is InstanceState.ACTIVE)
    idle = sum(1 for i in alive if i.state is InstanceState.IDLE)
    assert state.active_count(index) == active
    assert state.idle_count(index) == idle
    assert state.alive_count(index) == len(alive)
    fleet = orch.fleet
    placed = Counter(fleet.index_of(i.host_id) for i in alive)
    counts = state.host_counts(index, fleet.all_indices)
    assert counts.tolist() == [placed[host] for host in range(fleet.n_hosts)]


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
        store = orch.instance_store
        assert store.alive_count(store.index_of(service.qualified_name)) == 0

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

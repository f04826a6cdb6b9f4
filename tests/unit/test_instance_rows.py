"""Instances stay rows: a launch commits columns only.

A launched instance is a row of the :class:`~repro.fleet.InstanceStore`
and nothing else until code asks for it: its :class:`ContainerInstance`
view, its :class:`InstanceHandle`, its id string and its sandbox are built
when a row is read.  These tests pin that a census-shaped campaign leaves
no per-row Python object behind, and that views of one row, built at
different times, act as one instance.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.cloud.api import HandleColumn, InstanceHandle, rows_of
from repro.cloud.services import ServiceConfig
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.errors import InstanceGoneError
from repro.experiments.base import default_env
from repro.fleet import ContainerInstance
from repro.fleet.instances import _Rows
from repro.runner import WorldSnapshot
from repro.sandbox.base import Sandbox
from tests.conftest import tiny_profile

SERVICES, LAUNCHES, PER_LAUNCH = 3, 2, 800
#: Allocations a campaign may keep besides the columns, whatever its
#: size: per-launch and per-service bookkeeping, interpreter caches.
SLACK_BYTES = 64 * 1024


def live_views(env) -> int:
    """Views and handles of the world's rows that are still reachable."""
    table = env.orchestrator.instance_store._rows
    gc.collect()
    return sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, (ContainerInstance, InstanceHandle)) and obj._rows is table
    )


def column_bytes(store) -> int:
    """Bytes the store's row columns and per-service row arrays hold."""
    table = store._rows
    columns = sum(getattr(table, name).nbytes for name, _dtype, _fill in _Rows.COLUMNS)
    return columns + sum(rows.nbytes for rows in store._rows_of)


def census_rounds(env, per_launch: int = PER_LAUNCH) -> None:
    """Deploy, connect, fingerprint and disconnect, then let every idle
    instance be reaped: the census loop of Fig. 12."""
    client = env.attacker
    names = [
        client.deploy(ServiceConfig(name=f"census-{i}", max_instances=per_launch))
        for i in range(SERVICES)
    ]
    for _round in range(LAUNCHES):
        for name in names:
            handles = client.connect(name, per_launch)
            assert isinstance(handles, HandleColumn)
            fingerprint_gen1_instances(handles)
            client.disconnect(name)
        client.wait(env.datacenter.profile.idle_deadline + 1.0)


def test_census_loop_keeps_no_object_per_row():
    census_rounds(default_env("us-west1", seed=4), per_launch=20)  # first-use caches
    env = default_env("us-west1", seed=3)
    store = env.orchestrator.instance_store
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        census_rounds(env)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert store.n_rows >= 4000
    assert store.totals() == (0, 0)
    assert env.orchestrator.pending_reaps() == 0
    assert live_views(env) == 0
    assert not store._rows.hot and not store._rows.sigterm
    # Every column array now held was allocated while tracing.
    assert grown <= column_bytes(store) + SLACK_BYTES


def test_views_of_one_row_are_one_instance():
    env = default_env(profile=tiny_profile(), seed=8)
    client = env.attacker
    name = client.deploy(ServiceConfig(name="svc"))
    first = client.connect(name, 4)
    again = client.connect(name, 4)
    assert first == again and first == list(again)
    assert first[2] is not again[2]
    assert first[2] == again[2] and hash(first[2]) == hash(again[2])
    assert first[2]._instance == again[2]._instance
    assert len({*first, *again}) == 4
    assert first[1] != first[2]

    # Views of one row draw from one stream: a row made hot through one
    # view is hot for every view.
    sandbox = first[2].run(lambda sandbox: sandbox)
    assert again[2]._instance.sandbox._rng is sandbox._rng
    assert [h._instance.row in h._instance._rows.hot for h in again] == [False, False, True, False]
    sandbox.rdtsc()

    # A snapshot carries the row's cache; the fork's views share it.
    forked = WorldSnapshot.capture(env).fork()
    fork_store = forked.orchestrator.instance_store
    row = first[2]._instance.row
    left, right = fork_store.instance(row), fork_store.instance(row)
    assert row in fork_store._rows.hot and left.sandbox._rng is right.sandbox._rng
    assert left.sandbox._rng is not sandbox._rng
    assert left.instance_id == first[2].instance_id
    assert str(left.sandbox._rng.bit_generator.state) == str(
        sandbox._rng.bit_generator.state
    )
    assert left != first[2]._instance  # another world's row

    # Termination drops it for every view.
    client.kill(name)
    assert not any(h.alive for h in first)
    assert row not in env.orchestrator.instance_store._rows.hot
    with pytest.raises(InstanceGoneError):
        again[2].run(lambda sandbox: None)
    assert isinstance(left.sandbox, Sandbox)  # the fork lives on


def test_column_reads_build_only_the_rows_asked_for():
    env = default_env(profile=tiny_profile(), seed=9)
    client = env.attacker
    handles = client.connect(client.deploy(ServiceConfig(name="svc")), 6)
    assert live_views(env) == 0
    picked = handles[3]
    assert live_views(env) == 1
    _table, rows = rows_of(handles)
    assert rows_of(handles[1:4])[1].tolist() == rows[1:4].tolist()
    assert rows_of(list(handles))[1].tolist() == rows.tolist()
    assert handles[-1] == list(handles)[-1]
    del picked
    assert live_views(env) == 0
    ids = [h.instance_id for h in handles]
    assert ids == env.orchestrator.instance_store.instance_ids(rows)
    assert len(set(ids)) == 6
    assert all(
        env.orchestrator.true_host_of(h.instance_id) == h._instance.host_id for h in handles
    )
    np.testing.assert_array_equal(
        np.diff(env.orchestrator.instance_store.serial[rows]), 1
    )

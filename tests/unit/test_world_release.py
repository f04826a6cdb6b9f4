"""A closed world is freed by reference counting alone.

A live world is cyclic: the clock's tick hook is the event scheduler's
bound ``_on_tick``, and queued idle reaps and tenant evaluations point
back at the orchestrator, so only a full garbage collection frees it.
:meth:`SimulationEnv.close` breaks those cycles.  Each test runs with
the collector disabled and watches the orchestrator through a weakref.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cloud.services import ServiceConfig
from repro.cloud.traffic import TrafficConfig
from repro.experiments import census
from repro.experiments.base import default_env

from tests.conftest import tiny_profile


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def used_world(background: bool):
    """A world with instances idling out, so idle reaps are queued."""
    traffic = TrafficConfig(n_tenants=12, seed=4, duration_s=3600.0) if background else None
    env = default_env(profile=tiny_profile(), seed=5, background=traffic)
    client = env.attacker
    name = client.deploy(ServiceConfig(name="svc"))
    client.connect(name, 20)
    client.disconnect(name)
    env.clock.sleep(1.0)
    assert env.orchestrator.scheduler.pending() > 0
    return env


@pytest.mark.parametrize("background", [False, True], ids=["quiet", "background"])
def test_closed_world_is_freed_without_the_collector(no_collector, background):
    env = used_world(background)
    orchestrator = weakref.ref(env.orchestrator)
    env.close()
    del env
    assert orchestrator() is None


def test_open_world_waits_for_the_collector(no_collector):
    env = used_world(background=False)
    orchestrator = weakref.ref(env.orchestrator)
    del env
    assert orchestrator() is not None
    gc.collect()
    assert orchestrator() is None


def test_close_twice_is_a_no_op():
    env = used_world(background=True)
    env.close()
    env.close()
    assert env.orchestrator.scheduler.pending() == 0


def test_census_world_is_freed_before_the_attack_world(no_collector, monkeypatch):
    """``_region_cell`` closes the census world, and holds it nowhere,
    before it builds the attack world."""
    built = []
    census_alive_at_attack = []

    def watched_env(region, seed):
        env = default_env(region, seed=seed)
        if built:
            census_alive_at_attack.append(built[0]() is not None)
        built.append(weakref.ref(env.orchestrator))
        return env

    monkeypatch.setattr(census, "default_env", watched_env)
    params = {
        "region": "us-west1",
        "services_per_account": 1,
        "launches_per_service": 2,
        "instances_per_launch": 40,
        "interval": 600.0,
    }
    cell = census._region_cell(params, seed=3)
    assert census_alive_at_attack == [False]
    assert cell.total_hosts > 0 and cell.attacker_hosts_at_once > 0

"""Shared fixtures: small simulated environments that keep tests fast."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from repro.cloud.topology import AccountPlacementPlan, RegionProfile
from repro.experiments.base import SimulationEnv, default_env
from repro.fleet import InstanceStore
from repro.hardware.cpu import cpu_catalog
from repro.hardware.host import PhysicalHost
from repro.hardware.tsc import TimestampCounter
from repro.sandbox.base import Sandbox, TscPolicy
from repro.simtime.clock import SIM_EPOCH, SimClock


@pytest.fixture(autouse=True)
def _isolated_cell_cache(tmp_path, monkeypatch):
    """Keep every test's runner cache inside its own tmp directory.

    Without this, CLI/driver tests invoked with caching enabled would read
    and write ``~/.cache/repro-runner`` on the developer's machine.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cell-cache"))


@pytest.fixture(autouse=True)
def _isolated_world_cache():
    """Drop the per-process warm-world cache around every test.

    Warm worlds are content-addressed, so carryover would be *correct*,
    but hit/miss counters leaking between tests would make assertions
    order-dependent.
    """
    from repro.runner import reset_process_world_cache

    reset_process_world_cache()
    yield
    reset_process_world_cache()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def clock() -> SimClock:
    """A fresh simulated clock at the default epoch."""
    return SimClock()


def make_host(
    host_id: str = "host-test",
    boot_age_s: float = 10 * 86400.0,
    epsilon_hz: float = 1000.0,
    now: float = SIM_EPOCH,
    model_index: int = 0,
) -> PhysicalHost:
    """Build one physical host with controlled TSC parameters."""
    cpu = cpu_catalog()[model_index]
    return PhysicalHost(
        host_id=host_id,
        cpu=cpu,
        tsc=TimestampCounter(
            boot_time=now - boot_age_s,
            actual_frequency_hz=cpu.reported_tsc_frequency_hz - epsilon_hz,
        ),
    )


def row_sandbox(
    cls: type[Sandbox],
    host: PhysicalHost | None = None,
    clock: SimClock | None = None,
    seed: int = 0,
    tsc_policy: TscPolicy = TscPolicy.NATIVE,
    key: str = "sb",
) -> Sandbox:
    """The sandbox of a one-row store: one ``cls`` instance of service
    ``key`` on ``host``, launched now with stream seed ``seed``."""
    host = host or make_host()
    clock = clock or SimClock()
    store = InstanceStore(clock, [host], tsc_policy)
    index = store.service_index(key)
    (row,) = store.launch(
        index, np.zeros(1, dtype=np.int64), [1], np.array([seed]), clock.now(), clock.now(), cls
    )
    return store.instance(int(row)).sandbox


@pytest.fixture
def host() -> PhysicalHost:
    """A single host booted 10 days ago with a 1 kHz frequency error."""
    return make_host()


def tiny_profile(**overrides) -> RegionProfile:
    """A very small region profile for fast tests."""
    defaults = dict(
        name="tiny",
        n_hosts=30,
        active_hosts=20,
        shard_size=5,
        helper_recruit_fraction=0.25,
        helper_pool_cap=12,
        hot_min_concurrency=8,
        plan=AccountPlacementPlan(
            account_shards={"account-1": 0, "account-2": 1, "account-3": 2},
        ),
    )
    defaults.update(overrides)
    return RegionProfile(**defaults)


@pytest.fixture
def tiny_env() -> SimulationEnv:
    """A complete simulated region small enough for unit tests."""
    return default_env(profile=tiny_profile(), seed=42)


@pytest.fixture
def tiny_env_factory():
    """Factory for tiny environments with custom seeds/profile overrides."""

    def build(
        seed: int = 42,
        fault_plan=None,
        retry_policy=None,
        background=None,
        **profile_overrides,
    ) -> SimulationEnv:
        return default_env(
            profile=tiny_profile(**profile_overrides),
            seed=seed,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            background=background,
        )

    return build


class ScalePoint(NamedTuple):
    """One evaluation of :func:`follow_pattern`."""

    elapsed_s: float
    demand: int
    active: int
    alive: int


def follow_pattern(orchestrator, service, pattern, duration_s, period_s=15.0):
    """Scale ``service`` to ``pattern``'s demand every ``period_s``.

    Each evaluation samples the pattern at its nominal slot time and calls
    ``scale_to`` with :meth:`ServiceConfig.target_for` of that demand.
    """
    clock = orchestrator.clock
    start = clock.now()
    points = []
    for slot in range(int(duration_s // period_s) + 1):
        elapsed = slot * period_s
        clock.sleep(max(0.0, start + elapsed - clock.now()))
        demand = pattern.concurrency_at(elapsed)
        active = orchestrator.scale_to(service, service.config.target_for(demand))
        points.append(
            ScalePoint(elapsed, demand, len(active), orchestrator.alive_count(service))
        )
    return points

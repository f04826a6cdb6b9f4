"""Hyperscale-tier tests: 64x fleets, million-event schedules.

These are the `scale`-marked companions to the tier-1 identity suites:
the same twin-world contracts, run at region scale instead of toy scale,
plus the two resource-ceiling regressions the hyperscale tiers depend on
(per-service memory stays O(services), the event heap stays bounded under
schedule/cancel churn).

Excluded from tier-1 by the default ``-m 'not scale'`` addopts; run with::

    PYTHONPATH=src python -m pytest -m scale tests/scale
"""

from __future__ import annotations

import tracemalloc
from collections import deque

import numpy as np
import pytest

from repro.analysis.aggregation import FootprintAccumulator
from repro.cloud.loadbalancer import HelperHostRecruiter
from repro.cloud.services import Service, ServiceConfig
from repro.core.fingerprint import FingerprintColumn
from repro.experiments.base import default_env
from repro.fleet import FleetStore, InstanceStore
from repro.simtime.clock import SimClock
from repro.simtime.scheduler import _COMPACT_MIN_DEAD, EventScheduler

from tests.conftest import tiny_profile
from tests.oracles.census import census_reduce_scalar
from tests.unit.test_hyperscale_identity import run_twin_launch_worlds

pytestmark = pytest.mark.scale

HYPERSCALE_FACTOR = 64
PAPER_FLEET_HOSTS = 520  # us-east1
PAPER_ACTIVE_HOSTS = 300


def hyperscale_profile(**overrides):
    """A 64x us-east1: ~33k hosts, ~19k serving, paper-shaped knobs."""
    knobs = dict(
        name="hyper-64x",
        n_hosts=PAPER_FLEET_HOSTS * HYPERSCALE_FACTOR,
        active_hosts=PAPER_ACTIVE_HOSTS * HYPERSCALE_FACTOR,
        shard_size=75,
        helper_recruit_fraction=0.064,
        helper_pool_cap=250,
        hot_min_concurrency=200,
    )
    knobs.update(overrides)
    return tiny_profile(**knobs)


def hyperscale_env_factory(seed=42, fault_plan=None, background=None, **profile_overrides):
    return default_env(
        profile=hyperscale_profile(**profile_overrides),
        seed=seed,
        fault_plan=fault_plan,
        background=background,
    )


# ----------------------------------------------------------------------
# Twin-world launch identity, sampled at 64x
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "seed,shape",
    [
        (101, dict(n=900, launches=1, max_instances=1000)),
        (102, dict(n=600, launches=2, idle_deaths=True, max_instances=1000)),
        (103, dict(n=400, launches=2, kill_mid=True, max_instances=1000)),
    ],
    ids=["clean-wave", "idle-deaths", "killed-instance"],
)
def test_launch_identity_at_64x(seed, shape):
    """The tier-1 identity matrix, sampled on a 33k-host fleet with
    hot-launch waves big enough to trigger helper recruiting."""
    run_twin_launch_worlds(hyperscale_env_factory, seed, **shape)


def test_recruiter_identity_at_64x():
    """Gathered id resolution == the per-pick loop on a 33k-host fleet."""
    n_hosts = PAPER_FLEET_HOSTS * HYPERSCALE_FACTOR
    profile = hyperscale_profile(helper_recruit_fraction=0.5, helper_pool_cap=4096)
    candidates = np.arange(n_hosts, dtype=np.int64)
    np.random.default_rng(5).shuffle(candidates)

    def build():
        store = FleetStore([f"h{i:06d}" for i in range(n_hosts)])
        service = Service(
            config=ServiceConfig(name="svc"),
            account_id="account-1",
            image_id="image-0",
        )
        return store, service

    store, service = build()
    rng = np.random.default_rng(5)
    picked = HelperHostRecruiter(profile, rng).recruit(
        service, 5000, candidates, store
    )

    store_ref, _ = build()
    rng_ref = np.random.default_rng(5)
    count = min(2500, profile.helper_pool_cap, candidates.size)
    picked_pos = rng_ref.choice(candidates.size, size=count, replace=False)
    reference = [store_ref.host_id(int(candidates[pos])) for pos in picked_pos]

    assert picked == reference
    assert str(rng.bit_generator.state) == str(rng_ref.bit_generator.state)


def test_census_identity_at_million_observations():
    """FootprintAccumulator == set algebra over ~1M host observations
    (30 launches x a 64x serving pool's worth of fingerprints each), each
    launch folded in as its fingerprint column's distinct fingerprints."""
    n_hosts = PAPER_FLEET_HOSTS * HYPERSCALE_FACTOR
    per_launch = PAPER_ACTIVE_HOSTS * HYPERSCALE_FACTOR  # wave-sized
    rng = np.random.default_rng(9)
    stream = [
        [("boot-bucket", int(b)) for b in rng.integers(n_hosts, size=per_launch)]
        for _ in range(30)
    ]
    ref_per, ref_cum = census_reduce_scalar(stream)
    acc = FootprintAccumulator()
    got = [
        acc.add_launch(FingerprintColumn.of(enumerate(launch)).fingerprints)
        for launch in stream
    ]
    assert [g[0] for g in got] == ref_per
    assert [g[1] for g in got] == ref_cum


# ----------------------------------------------------------------------
# Memory ceiling: per-service state stays O(services), not O(hosts x services)
# ----------------------------------------------------------------------


def test_service_count_memory_stays_linear_in_touched_hosts():
    """5,000 services on a 64x fleet must cost megabytes, not the
    ~1.3 GB a dense per-service host column each would cost.

    Nothing is keyed by (host, service): where a service runs is its
    instance rows, so the per-service state is what registering a service
    in the instance table allocates.  The budget is deliberately loose
    (interpreter/allocator noise) but more than an order of magnitude
    under the dense equivalent, so any return to O(hosts x services)
    storage trips it immediately.
    """
    n_hosts = PAPER_FLEET_HOSTS * HYPERSCALE_FACTOR  # 33,280
    n_services = 5_000

    host_ids = [f"h{i:06d}" for i in range(n_hosts)]

    tracemalloc.start()
    store = FleetStore(host_ids, capacity_slots=160.0)
    instances = InstanceStore(SimClock(), hosts=[])
    baseline, _ = tracemalloc.get_traced_memory()
    for s in range(n_services):
        key = f"account-{s % 7}/svc-{s:04d}"
        instances.service_index(key)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    growth = after - baseline
    dense_equivalent = n_services * n_hosts * 8  # one int64 column each
    assert dense_equivalent > 1_000_000_000
    assert growth < dense_equivalent / 20
    assert growth < 48 * 1024 * 1024

    # The per-service count columns are O(services), independent of
    # hosts, and a service with no rows counts zero on every host.
    assert instances.index_of(key) == n_services - 1
    assert instances.active_for(np.arange(n_services)).shape == (n_services,)
    assert not instances.host_counts(n_services - 1, store.all_indices).any()


# ----------------------------------------------------------------------
# Event heap stays bounded across a million schedule/cancel cycles
# ----------------------------------------------------------------------


def test_scheduler_heap_bounded_over_million_cancel_cycles():
    """Schedule-then-cancel churn (idle reaps rescheduled on every
    reconnect) must never accumulate cancelled entries: lazy compaction
    keeps the heap within ~2x the live-event count."""
    clock = SimClock()
    sched = EventScheduler(clock)
    live: deque = deque()
    live_target = 100
    bound = 2 * (live_target + _COMPACT_MIN_DEAD)
    worst = 0
    for i in range(1_000_000):
        live.append(sched.call_at(1e12 + i, lambda: None))
        if len(live) > live_target:
            live.popleft().cancel()
        if len(sched._queue) > worst:
            worst = len(sched._queue)
    assert worst <= bound, f"heap grew to {worst} entries (bound {bound})"

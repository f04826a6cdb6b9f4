"""Regression test: placement cost must not scale with fleet size.

Before the columnar refactor the orchestrator rebuilt a full-fleet
``{host_id: capacity}`` dict on *every* placement call, so placing one
instance on a 10-host base set cost O(n_hosts).  With the fleet store the
policy only touches the ``allowed`` index array, so fleet size is
irrelevant to per-call cost.
"""

import time

import numpy as np

from repro.cloud.placement import PlacementPolicy, PlacementRequest
from repro.fleet import FleetStore


def place_many(n_hosts, rounds=300, allowed_size=10, count=8):
    store = FleetStore([f"h{i:06d}" for i in range(n_hosts)], capacity_slots=1e12)
    allowed = np.arange(allowed_size, dtype=np.int64)
    counts = np.zeros(allowed_size, dtype=np.int64)
    policy = PlacementPolicy(np.random.default_rng(0))
    start = time.perf_counter()
    for _ in range(rounds):
        policy.place(
            PlacementRequest(
                count=count,
                slots_per_instance=1.0,
                allowed=allowed,
                allowed_counts=counts,
            ),
            store,
        )
    return time.perf_counter() - start


def test_placement_cost_independent_of_fleet_size():
    # Best-of-three to shake scheduler noise out of the wall-clock numbers.
    small = min(place_many(n_hosts=200) for _ in range(3))
    large = min(place_many(n_hosts=40_000) for _ in range(3))
    # The fleets differ by 200x; any per-call full-fleet scan would blow
    # far past this generous margin.
    assert large < 10 * small, (
        f"placement slowed down with fleet size: {small:.4f}s @200 hosts "
        f"vs {large:.4f}s @40k hosts"
    )

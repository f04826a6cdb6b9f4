"""Whole-heap placement (reference for ``PlacementPolicy.place``)."""

from __future__ import annotations

import heapq

import numpy as np

from repro.cloud.placement import PlacementRequest
from repro.errors import NoCapacityError
from repro.fleet import FleetStore


def place_heap(
    rng: np.random.Generator, request: PlacementRequest, store: FleetStore
) -> list[int]:
    """The historical placement loop: one min-heap over every allowed host.

    Same draws as the policy (one tiebreak per allowed host, then per
    instance an optional scatter draw and rejection samples), same float
    load accumulation.  ``PlacementPolicy.place`` keeps only the hosts it
    has picked on a heap; the property suite pins it to this loop.
    """
    allowed = np.asarray(request.allowed, dtype=np.int64)
    if allowed.size == 0:
        raise NoCapacityError("placement request has no allowed hosts")
    if request.allowed_counts is not None:
        counts0 = np.asarray(request.allowed_counts, dtype=np.int64)
    else:
        counts0 = np.zeros(allowed.size, dtype=np.int64)
    tiebreaks = rng.random(allowed.size)
    scatter = request.scatter_candidates
    if not request.scatter_probability > 0.0 or scatter is None or not scatter.size:
        scatter = None
    load, capacity = store.load_slots, store.capacity_slots
    slots = request.slots_per_instance
    heap = [
        (int(counts0[i]), float(tiebreaks[i]), int(allowed[i]))
        for i in range(allowed.size)
    ]
    heapq.heapify(heap)

    chosen = []
    for _ in range(request.count):
        host = -1
        if scatter is not None and rng.random() < request.scatter_probability:
            for _ in range(16):
                candidate = int(scatter[int(rng.integers(scatter.size))])
                if load[candidate] + slots <= capacity[candidate]:
                    host = candidate
                    break
        while host < 0 and heap:
            count, tiebreak, candidate = heapq.heappop(heap)
            if load[candidate] + slots <= capacity[candidate]:
                heapq.heappush(heap, (count + 1, tiebreak, candidate))
                host = candidate
        if host < 0:
            raise NoCapacityError("no feasible host")
        load[host] += slots
        chosen.append(host)
    return chosen

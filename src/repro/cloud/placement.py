"""Host selection for new container instances.

Implements the placement behavior observed in the paper: a typical FaaS
orchestrator filters feasible hosts and picks the best-scoring one by
resource utilization and load balancing (§2.2).  Observation 1 shows the
visible outcome on Cloud Run — instances of a service spread *near-uniformly*
across the hosts used — so the scorer here balances the *service's own*
per-host instance count (anti-affinity-style spreading) with random
tie-breaking, subject to per-host total-capacity limits.  Balancing on the
service's own count rather than total host load is what makes a launch
spread 800 instances 10-11 per host (Exp. 1) regardless of other tenants.

In dynamic regions (us-central1), a per-account fraction of instances
scatters off the allowed set onto arbitrary fleet hosts; see
:class:`~repro.cloud.topology.AccountPlacementPlan`.

Placement runs against the columnar :class:`~repro.fleet.FleetStore`:
requests carry host *index* arrays, and load/capacity reads and writes are
column operations.  One loop places every batch, least-used host first by
``(service count, random tiebreak, host index)``: the pop order of the
historical dict-based min-heap, byte-for-byte (same RNG draw order, same
float accumulation).
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import NoCapacityError
from repro.fleet import FleetStore

if TYPE_CHECKING:  # import cycle: platform -> ... only at type-check time
    from repro.cloud.platform import PlatformProfile

@dataclass
class PlacementRequest:
    """One batch placement request (all hosts given as fleet indices).

    Attributes
    ----------
    count:
        Number of instances to place.
    slots_per_instance:
        Host capacity slots each instance consumes (see
        :meth:`repro.cloud.services.ContainerSize.slots`).
    allowed:
        Index array of the service's preferred hosts (base plus recruited
        helpers), in preference order — tiebreaks are drawn in this order.
    allowed_counts:
        The launching service's alive instances on each ``allowed`` host,
        an int64 array aligned with ``allowed`` (``None`` reads as zeros);
        the orchestrator derives it from its instance table
        (:meth:`~repro.fleet.InstanceStore.host_counts`).
    scatter_probability:
        Per-instance chance of being scattered onto a random fleet host
        instead of the allowed set (0 outside dynamic regions).
    scatter_candidates:
        Index array of hosts eligible as scatter targets (normally the
        whole fleet).
    """

    count: int
    slots_per_instance: float
    allowed: np.ndarray
    allowed_counts: np.ndarray | None = None
    scatter_probability: float = 0.0
    scatter_candidates: np.ndarray | None = None


class PlacementPolicy:
    """Least-loaded near-uniform placement over an allowed host set.

    An optional :class:`~repro.cloud.platform.PlatformProfile` scales the
    per-request scatter probability (its ``placement_spread`` knob); the
    neutral profile (and ``None``) leaves every request untouched, so the
    heap's draw-order contract is unaffected.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        platform: "PlatformProfile | None" = None,
    ) -> None:
        self._rng = rng
        self._platform = platform

    def place(self, request: PlacementRequest, store: FleetStore) -> np.ndarray:
        """Choose a host index for each requested instance.

        Mutates ``store.load_slots`` as instances are placed so the batch
        itself spreads uniformly.  Returns an int64 index array of length
        ``request.count``.

        Raises
        ------
        NoCapacityError
            If no feasible host remains for some instance.
        """
        if self._platform is not None:
            effective = self._platform.effective_scatter(
                request.scatter_probability
            )
            if effective != request.scatter_probability:
                request = dataclasses.replace(
                    request, scatter_probability=effective
                )
        allowed = np.asarray(request.allowed, dtype=np.int64)
        if allowed.size == 0:
            raise NoCapacityError("placement request has no allowed hosts")

        if request.allowed_counts is not None:
            counts0 = np.asarray(request.allowed_counts, dtype=np.int64)
        else:
            counts0 = np.zeros(allowed.size, dtype=np.int64)
        # One tiebreak per allowed host, drawn in allowed order.  A single
        # array draw consumes the identical RNG stream as the historical
        # per-host scalar draws.
        tiebreaks = self._rng.random(allowed.size)

        scatter = (
            request.scatter_candidates
            if (
                request.scatter_probability > 0.0
                and request.scatter_candidates is not None
                and request.scatter_candidates.size > 0
            )
            else None
        )
        load = store.load_slots
        capacity = store.capacity_slots
        slots = request.slots_per_instance
        # Least-used host first, by (service instance count, random tiebreak,
        # host index).  Unpicked hosts wait in that order; a picked host goes
        # on the ``picked`` min-heap one count up.  Taking the smaller of the
        # two heads pops one heap over every host without building it, so a
        # small batch on a wide allowed set only touches the hosts it picks.
        # Counts only grow during a batch, so a host popped as full stays full.
        order = np.lexsort((allowed, tiebreaks, counts0)).tolist()
        unpicked = ((counts0.item(i), tiebreaks.item(i), allowed.item(i)) for i in order)
        head = next(unpicked, None)
        picked: list[tuple[int, float, int]] = []

        chosen = np.empty(request.count, dtype=np.int64)
        for k in range(request.count):
            host = -1
            if scatter is not None and self._rng.random() < request.scatter_probability:
                host = self._pick_scatter_host(scatter, slots, load, capacity)
            while host < 0 and (head is not None or picked):
                if head is not None and (not picked or head < picked[0]):
                    count, tiebreak, host = head
                    head = next(unpicked, None)
                else:
                    count, tiebreak, host = heapq.heappop(picked)
                if load[host] + slots > capacity[host]:
                    host = -1  # full for the rest of the batch
                else:
                    heapq.heappush(picked, (count + 1, tiebreak, host))
            if host < 0:
                raise NoCapacityError(
                    f"no host among {allowed.size} allowed and "
                    f"{0 if scatter is None else scatter.size} scatter "
                    f"candidates has {slots} free slots"
                )
            load[host] += slots
            chosen[k] = host
        return chosen

    def _pick_scatter_host(
        self,
        scatter: np.ndarray,
        slots: float,
        load: np.ndarray,
        capacity: np.ndarray,
    ) -> int:
        """Pick a random feasible scatter target (a few rejection samples)."""
        for _ in range(16):
            host = int(scatter[int(self._rng.integers(scatter.size))])
            if load[host] + slots <= capacity[host]:
                return host
        return -1

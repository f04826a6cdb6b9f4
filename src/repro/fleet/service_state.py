"""Columnar per-service instance-state counts.

The orchestrator historically answered "how many active instances does
this service have?" by rebuilding Python lists from its per-service
instance dict — fine for one attacker service, quadratic pain when a
background-traffic engine (:mod:`repro.cloud.traffic`) evaluates
thousands of tenant services per autoscale tick.  This store keeps the
ACTIVE/IDLE counts as dense NumPy columns indexed by a stable
service-key <-> index mapping, mirroring :class:`~repro.fleet.store.FleetStore`
for hosts.

The :class:`~repro.fleet.instances.InstanceStore` that owns it is the
sole mutator (every instance state transition — create, idle-out,
reactivate, terminate — routes through it); everyone else reads.
Counts are pure bookkeeping: they never feed an RNG draw, so they cannot
perturb the byte-identity contract.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

IntColumn = NDArray[np.int64]
IndexArray = NDArray[np.int64]

#: Initial/incremental column capacity; doubled on growth.
_MIN_CAPACITY = 64


class ServiceStateStore:
    """Dense per-service ACTIVE/IDLE instance counts as NumPy columns."""

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._keys: list[str] = []
        self._active: IntColumn = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self._idle: IntColumn = np.zeros(_MIN_CAPACITY, dtype=np.int64)

    # ------------------------------------------------------------------
    # Index mapping
    # ------------------------------------------------------------------
    @property
    def n_services(self) -> int:
        """Number of registered services."""
        return len(self._keys)

    def ensure(self, service_key: str) -> int:
        """Return the dense index for a service key, registering it new."""
        index = self._index.get(service_key)
        if index is None:
            index = len(self._keys)
            self._index[service_key] = index
            self._keys.append(service_key)
            if index >= self._active.shape[0]:
                grow = max(_MIN_CAPACITY, self._active.shape[0])
                self._active = np.concatenate(
                    [self._active, np.zeros(grow, dtype=np.int64)]
                )
                self._idle = np.concatenate(
                    [self._idle, np.zeros(grow, dtype=np.int64)]
                )
        return index

    def index_of(self, service_key: str) -> int:
        """Dense index of a registered service key.

        Raises
        ------
        KeyError
            If the service was never registered.
        """
        return self._index[service_key]

    def key_of(self, index: int) -> str:
        """Service key at a dense index."""
        return self._keys[index]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def active_count(self, index: int) -> int:
        """ACTIVE instances of the service at ``index``."""
        return int(self._active[index])

    def idle_count(self, index: int) -> int:
        """IDLE (alive, disconnected) instances of the service."""
        return int(self._idle[index])

    def alive_count(self, index: int) -> int:
        """All non-terminated instances of the service."""
        return int(self._active[index] + self._idle[index])

    def active_for(self, indices: IndexArray) -> IntColumn:
        """Batched ACTIVE counts for an index array (one fancy-index op)."""
        result: IntColumn = self._active[indices]
        return result

    def totals(self) -> tuple[int, int]:
        """``(active, idle)`` instance totals across every service."""
        n = len(self._keys)
        return int(self._active[:n].sum()), int(self._idle[:n].sum())

    # ------------------------------------------------------------------
    # Transitions (instance store only)
    # ------------------------------------------------------------------
    def on_created(self, index: int, count: int = 1) -> None:
        """``count`` new instances launched straight into ACTIVE."""
        self._active[index] += count

    def on_idled(self, index: int, count: int = 1) -> None:
        """``count`` ACTIVE instances went IDLE."""
        self._active[index] -= count
        self._idle[index] += count

    def on_activated(self, index: int, count: int = 1) -> None:
        """``count`` IDLE instances were reused back into ACTIVE."""
        self._idle[index] -= count
        self._active[index] += count

    def on_terminated(self, index: int, was_active: bool, count: int = 1) -> None:
        """``count`` instances left ACTIVE (or IDLE) for TERMINATED."""
        if was_active:
            self._active[index] -= count
        else:
            self._idle[index] -= count

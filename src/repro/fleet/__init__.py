"""Columnar fleet-state core.

One indexed :class:`FleetStore` owns every per-host scalar the simulator
tracks — capacity and load slots, serving-pool and rotated-out membership,
shard index, and the problematic-timing flag — as NumPy columns with a
stable host-id <-> index mapping.  The cloud layers
(:class:`~repro.cloud.datacenter.DataCenter`,
:class:`~repro.cloud.placement.PlacementPolicy`,
:class:`~repro.cloud.orchestrator.Orchestrator`) resolve hosts to indices
once and run their hot loops as array operations instead of dict churn.

The datacenter mutates pool and shard state, the orchestrator load slots,
each through the store's narrow method surface; everyone else reads.  The
representation is an implementation detail; identical seeds reproduce the
pre-columnar placement sequences byte-for-byte (see the golden-trace
regression tests).

:class:`InstanceStore` does the same for container instances: one row per
instance and no Python object per row; a :class:`ContainerInstance` is a
view of a row, built when code asks for it.  Its rows are the one record of where a service's instances run:
placement reads a service's per-host counts from them
(:meth:`InstanceStore.host_counts`).  :mod:`repro.fleet.probe` takes a
batch's Gen 1 fingerprint samples from its unbooted rows as array draws
(:mod:`repro.fleet.seeding`) and serves a CTest batch's draws from their
seeded streams, booting no sandbox.
"""

from repro.fleet.instances import (
    ContainerInstance,
    InstanceState,
    InstanceStore,
)
from repro.fleet.store import FleetStore

__all__ = [
    "ContainerInstance",
    "FleetStore",
    "InstanceState",
    "InstanceStore",
]

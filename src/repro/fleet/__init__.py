"""Columnar fleet-state core.

One indexed :class:`FleetStore` owns every per-host scalar the simulator
tracks — capacity and load slots, per-service instance counts, serving-pool
and rotated-out membership, shard index, and the problematic-timing flag —
as NumPy columns with a stable host-id <-> index mapping.  The cloud layers
(:class:`~repro.cloud.datacenter.DataCenter`,
:class:`~repro.cloud.placement.PlacementPolicy`,
:class:`~repro.cloud.orchestrator.Orchestrator`) resolve hosts to indices
once and run their hot loops as array operations instead of dict churn.

Callers never reach into raw columns directly: reads go through
:class:`FleetView`, per-host mutations through :class:`HostHandle`, and
fleet-wide mutations through the store's narrow method surface.  The
representation is an implementation detail; identical seeds reproduce the
pre-columnar placement sequences byte-for-byte (see the golden-trace
regression tests).

:class:`InstanceStore` does the same for container instances: one row per
instance, with a :class:`ContainerInstance` handle per row for the client
API; :func:`boot_sandboxes` boots a batch of rows' sandboxes with one
vectorized seeding step (:mod:`repro.fleet.seeding`).
"""

from repro.fleet.instances import (
    ContainerInstance,
    InstanceState,
    InstanceStore,
    boot_sandboxes,
)
from repro.fleet.store import FleetSnapshot, FleetStore, SparseServiceCounts
from repro.fleet.view import FleetView, HostHandle

__all__ = [
    "ContainerInstance",
    "FleetSnapshot",
    "FleetStore",
    "FleetView",
    "HostHandle",
    "InstanceState",
    "InstanceStore",
    "SparseServiceCounts",
    "boot_sandboxes",
]

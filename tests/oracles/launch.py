"""Per-instance launch loop (reference for the segmented batched commit).

Each instance takes its id, survives its launch faults and draws its own
sandbox seed, one at a time.  The orchestrator's segmented commit must
leave every RNG stream and table exactly as this loop does — including
when a mid-batch ``LaunchError`` aborts it, or when retry backoff sleeps
fire clock hooks that launch or reap in between.
"""

from __future__ import annotations

import types

import numpy as np

from repro.cloud.orchestrator import Orchestrator
from repro.sandbox.gvisor import GVisorSandbox
from repro.sandbox.microvm import MicroVMSandbox


def create_instances_scalar(self: Orchestrator, service, account, count):
    """``Orchestrator._create_instances``, one instance per iteration.

    Each row goes in through the store's ``launch`` alone, and its
    sandbox is built eagerly from the world as it is at that moment.
    """
    chosen = self._place_batch(service, account, count)
    qualified = service.qualified_name
    now = self.clock.now()
    store = self.instance_store
    index = self._service_index(service)
    cls = GVisorSandbox if self._generation(service) == "gen1" else MicroVMSandbox
    created = []
    for host_index in chosen.tolist():
        host_id = self.fleet.ids[host_index]
        serial = next(self._instance_counter)
        instance_id = f"{qualified}#{serial:07d}"
        self._attempt_launch(instance_id)
        seed = self._rng.integers(2**63)
        (row,) = store.launch(
            index, [host_index], [serial], [seed], now, self.clock.now(), cls
        )
        store._rows.sandboxes[int(row)] = cls(
            self.datacenter.host(host_id),
            self.clock,
            np.random.default_rng(seed),
            instance_id,
            tsc_policy=self.tsc_policy,
        )
        created.append(row)
    return np.array(created, dtype=np.int64)


def bind_scalar_launch(orchestrator: Orchestrator) -> None:
    """Route one orchestrator's launches through the per-instance loop."""
    orchestrator._create_instances = types.MethodType(
        create_instances_scalar, orchestrator
    )

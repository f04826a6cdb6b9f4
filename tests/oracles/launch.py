"""Per-instance launch loop (reference for the segmented batched commit).

Each instance takes its id, survives its launch faults, bumps its host's
service count and draws its own sandbox seed, one at a time.  The
orchestrator's segmented commit must leave every RNG stream, count column
and table exactly as this loop does — including when a mid-batch
``LaunchError`` aborts it, or when retry backoff sleeps fire clock hooks
that launch or reap in between.
"""

from __future__ import annotations

import types

import numpy as np

from repro.cloud.instance import ContainerInstance
from repro.cloud.orchestrator import Orchestrator
from repro.sandbox.gvisor import GVisorSandbox
from repro.sandbox.microvm import MicroVMSandbox


def create_instances_scalar(self: Orchestrator, service, account, count):
    """``Orchestrator._create_instances``, one instance per iteration."""
    chosen = self._place_batch(service, account, count)
    qualified = service.qualified_name
    now = self.clock.now()
    state_index = self._svc_state.ensure(qualified)
    counts = self.fleet.service_counts(qualified)
    service_list = self._service_instances.setdefault(qualified, [])
    cls = GVisorSandbox if self._generation(service) == "gen1" else MicroVMSandbox
    created = []
    for host_index in chosen.tolist():
        host_id = self.fleet.ids[host_index]
        instance_id = f"{qualified}#{next(self._instance_counter):07d}"
        self._attempt_launch(instance_id)
        counts.inc(host_index)
        sandbox = cls(
            self.datacenter.host(host_id),
            self.clock,
            np.random.default_rng(self._rng.integers(2**63)),
            instance_id,
            tsc_policy=self.tsc_policy,
        )
        instance = ContainerInstance(
            instance_id=instance_id,
            service=service,
            host_id=host_id,
            sandbox=sandbox,
            created_at=now,
        )
        self.instances[instance_id] = instance
        self._billed_seconds[instance_id] = 0.0
        service_list.append(instance)
        self._svc_state.on_created(state_index)
        created.append(instance)
    return created


def bind_scalar_launch(orchestrator: Orchestrator) -> None:
    """Route one orchestrator's launches through the per-instance loop."""
    orchestrator._create_instances = types.MethodType(
        create_instances_scalar, orchestrator
    )

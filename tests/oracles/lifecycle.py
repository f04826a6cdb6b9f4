"""Per-instance idle-out, reap and teardown (reference for the batched
lifecycle).

Each idled instance settles its own bill, draws its own deadline with a
scalar ``uniform`` and gets its own scheduler event; each reap event
checks that its instance is still in the idle period it was scheduled
for, and each termination releases one host's load slot at a time.
The orchestrator's batched lifecycle must leave every RNG stream, column,
meter and the termination order exactly as this loop does.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.cloud.orchestrator import Orchestrator
from repro.fleet.instances import IDLE, TERMINATED
from repro.telemetry import current_telemetry


class _ScalarReap:
    """The scheduled idle-termination action for one row."""

    def __init__(self, orchestrator: Orchestrator, row: int, idle_epoch: float) -> None:
        self.orchestrator = orchestrator
        self.row = row
        self.idle_epoch = idle_epoch
        self.event = None

    def __call__(self) -> None:
        orch = self.orchestrator
        store = orch.instance_store
        reaps = orch._reap_events
        if reaps.get(self.row) is self.event:
            del reaps[self.row]
        still_idle = (
            store.state[self.row] == IDLE
            and store.last_active_at[self.row] == self.idle_epoch
        )
        if still_idle:
            orch._terminate([self.row], orch.clock.now())


def pending_reaps_scalar(self: Orchestrator) -> int:
    return len(self._reap_events)


def cancel_reaps_scalar(self: Orchestrator, rows) -> None:
    for row in np.asarray(rows).tolist():
        event = self._reap_events.pop(row, None)
        if event is not None:
            event.cancel()


def idle_out_scalar(self: Orchestrator, index, rows, now) -> None:
    """``Orchestrator._idle_out``, one row per iteration."""
    store = self.instance_store
    profile = self.datacenter.profile
    for row in np.asarray(rows).tolist():
        store.idle(index, np.array([row]), now)
        settle_billing_scalar(self, row)
        idle_grace, idle_deadline = profile.idle_grace, profile.idle_deadline
        if self.platform is not None:
            idle_grace, idle_deadline = self.platform.idle_window(
                idle_grace, idle_deadline
            )
        stream = self._idle_streams.get(store.key_of(index))
        if stream is None:
            deadline = now + self._rng.uniform(idle_grace, idle_deadline)
        else:
            span_s = idle_deadline - idle_grace
            instance_id = store.instance(row).instance_id
            deadline = now + idle_grace + stream(instance_id) * span_s
        self._cancel_reaps([row])
        reap = _ScalarReap(self, row, float(store.last_active_at[row]))
        reap.event = self.scheduler.call_at(deadline, reap)
        self._reap_events[row] = reap.event


def terminate_scalar(self: Orchestrator, rows, now) -> None:
    """``Orchestrator._terminate``, one row per iteration."""
    store = self.instance_store
    for row in np.asarray(rows, dtype=np.int64).tolist():
        if store.state[row] == TERMINATED:
            continue
        current_telemetry().count("orchestrator.terminations")
        self._cancel_reaps([row])
        instance = store.instance(row)
        store.terminate(np.array([row]), now)
        settle_billing_scalar(self, row)
        self.datacenter.host(instance.host_id).release_pressure(instance.instance_id)
        self.fleet.release_load(
            self.fleet.index_of(instance.host_id), instance.service.config.size.slots
        )


def settle_billing_scalar(self: Orchestrator, row: int) -> None:
    store = self.instance_store
    service = store.instance(row).service
    owed = store.active_total[row] - store.billed[row]
    if owed > 0:
        size = service.config.size
        account = self._account(service.account_id)
        account.billing.charge_active(size.vcpus, size.memory_gb, float(owed))
        store.billed[row] += owed


def bind_scalar_lifecycle(orchestrator: Orchestrator) -> None:
    """Route one orchestrator's idle-outs, reaps and teardowns through the
    per-instance loop."""
    orchestrator._reap_events = {}
    orchestrator.pending_reaps = partial(pending_reaps_scalar, orchestrator)
    orchestrator._cancel_reaps = partial(cancel_reaps_scalar, orchestrator)
    orchestrator._idle_out = partial(idle_out_scalar, orchestrator)
    orchestrator._terminate = partial(terminate_scalar, orchestrator)

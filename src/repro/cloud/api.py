"""The public, black-box FaaS client API.

This is the only interface attacker- and victim-side code uses, mirroring
the paper's threat model (§3): a standard platform user can deploy custom
services, open connections (driving autoscaling), run arbitrary programs
*inside* their containers, and observe nothing else.  Host identities never
cross this boundary — guest code must infer them, which is the point of the
paper.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.cloud.orchestrator import Orchestrator
from repro.cloud.services import Service, ServiceConfig
from repro.errors import CloudError, LaunchError
from repro.faults import RetryPolicy
from repro.fleet import ContainerInstance
from repro.fleet.instances import RowColumn, _Rows
from repro.sandbox.base import Sandbox

T = TypeVar("T")


class InstanceHandle:
    """Client-side handle to one container instance.

    The handle lets the user run guest code in the instance's sandbox and
    capture the SIGTERM notification, but exposes no placement information
    and no row.  Handles of one instance compare and hash equal.
    """

    __slots__ = ("_rows", "_row", "_id")

    def __init__(self, instance: ContainerInstance) -> None:
        # The handle keeps the view's row, not the view: one object per
        # handle, so a batch of handles gives the cycle collector half the
        # objects to track, and the view is built when platform code asks.
        self._rows = instance._rows
        self._row = instance.row
        self._id: str | None = None

    @property
    def _instance(self) -> ContainerInstance:
        """The platform-side view of the instance's row."""
        return ContainerInstance(self._rows, self._row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstanceHandle):
            return NotImplemented
        return self._row == other._row and self._rows is other._rows

    def __hash__(self) -> int:
        return hash(self._row)

    def __repr__(self) -> str:
        return f"InstanceHandle({self.instance_id!r})"

    @property
    def instance_id(self) -> str:
        """Opaque instance identifier (built on first read)."""
        cached = self._id
        if cached is None:
            cached = self._id = self._rows.instance_id(self._row)
        return cached

    @property
    def generation(self) -> str:
        """Execution environment generation ("gen1"/"gen2").

        Answered from the sandbox class, so it still answers after
        termination.
        """
        return self._instance.sandbox_class.generation

    @property
    def alive(self) -> bool:
        """Whether the instance is still running (active or idle)."""
        return self._rows.alive(self._row)

    def run(self, probe: Callable[[Sandbox], T]) -> T:
        """Execute ``probe(sandbox)`` inside the instance and return its result.

        Raises
        ------
        InstanceGoneError
            If the instance has been terminated.
        """
        return self._instance.run_probe(probe)

    def on_sigterm(self, callback: Callable[[float], None]) -> None:
        """Register a callback for the orchestrator's SIGTERM signal.

        The callback receives the wall-clock time of the signal; the paper's
        idle-termination experiment uses this to report termination times to
        a collection server (Fig. 6).
        """
        self._instance.on_sigterm = callback


class HandleColumn(RowColumn[InstanceHandle]):
    """The handles of one launch, as rows of the instance table.

    What :meth:`FaaSClient.connect` returns: a sequence that builds an
    :class:`InstanceHandle` only for a row that is indexed or iterated.
    Batch probes read its rows directly (:func:`rows_of`).
    """

    __slots__ = ()

    def _item(self, row: int) -> InstanceHandle:
        return InstanceHandle(ContainerInstance(self._table, row))


def rows_of(
    handles: Sequence[InstanceHandle],
) -> tuple[_Rows | None, NDArray[np.int64]]:
    """The instance table and rows of a batch of handles, in batch order.

    A :class:`HandleColumn` gives its own; a list is read handle by
    handle.  The table is ``None`` for an empty batch.

    Raises
    ------
    ValueError
        If the handles come from more than one world.
    """
    if isinstance(handles, HandleColumn):
        return handles._table, handles._row_array
    if not handles:
        return None, np.empty(0, dtype=np.int64)
    table = handles[0]._rows
    if any(handle._rows is not table for handle in handles):
        raise ValueError("a batch holds instances of more than one world")
    return table, np.fromiter((handle._row for handle in handles), np.int64, len(handles))


class FaaSClient:
    """A platform user's view of one region of the FaaS platform.

    Parameters
    ----------
    orchestrator:
        The region's orchestrator (the platform side).
    account_id:
        The account this client authenticates as; it must already be
        registered with the orchestrator.
    retry_policy:
        Optional client-side launch-retry discipline: when set, a
        ``connect`` that fails with :class:`LaunchError` (the platform
        exhausted its own per-instance retries) waits out the backoff and
        re-requests the whole target.  ``None`` (the default) propagates
        the error immediately — the historical behavior.
    """

    def __init__(
        self,
        orchestrator: Orchestrator,
        account_id: str,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if account_id not in orchestrator.accounts:
            raise CloudError(f"account {account_id!r} is not registered")
        self._orchestrator = orchestrator
        self.account_id = account_id
        self.retry_policy = retry_policy
        self._services: dict[str, Service] = {}

    @property
    def region(self) -> str:
        """Region name this client talks to."""
        return self._orchestrator.datacenter.profile.name

    def now(self) -> float:
        """Current wall-clock time (an unprivileged user can always tell time)."""
        return self._orchestrator.clock.now()

    def wait(self, seconds: float) -> None:
        """Let wall time pass (the user sleeps between launches)."""
        if seconds > 0:
            self._orchestrator.clock.sleep(seconds)

    @property
    def max_instances_quota(self) -> int:
        """This account's per-service instance quota (new accounts are low)."""
        return self._orchestrator.accounts[self.account_id].max_instances_per_service

    # ------------------------------------------------------------------
    # Service management
    # ------------------------------------------------------------------
    def deploy(self, config: ServiceConfig) -> str:
        """Deploy a service; returns its name for later calls."""
        service = self._orchestrator.deploy_service(self.account_id, config)
        self._services[config.name] = service
        return config.name

    def rebuild_image(self, service_name: str) -> None:
        """Rebuild the service's container image from scratch."""
        self._orchestrator.rebuild_image(self._service(service_name))

    def service_names(self) -> list[str]:
        """Names of services deployed through this client."""
        return sorted(self._services)

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------
    def connect(self, service_name: str, n_connections: int) -> HandleColumn:
        """Open ``n_connections`` connections, forcing that many instances.

        Returns the handles of the instances serving the connections, as a
        column built handle by handle when read.  With a
        ``retry_policy``, platform-side launch failures are retried
        (already-launched instances are reused, so a retry only asks for
        the remainder).
        """
        service = self._service(service_name)
        attempt = 0
        while True:
            try:
                instances = self._orchestrator.connect(service, n_connections)
                break
            except LaunchError:
                policy = self.retry_policy
                if policy is None or attempt >= policy.max_retries:
                    raise
                self.wait(policy.backoff(attempt))
                attempt += 1
        return HandleColumn(instances._table, instances._row_array)

    def disconnect(self, service_name: str) -> None:
        """Close all connections; instances idle out and are later reaped."""
        self._orchestrator.disconnect(self._service(service_name))

    def kill(self, service_name: str) -> None:
        """Force-terminate all instances of the service immediately."""
        self._orchestrator.kill_service(self._service(service_name))

    def probe(self, qualified_name: str, processing_seconds: float = 0.05) -> float:
        """Time one request to *any* service's public URL.

        ``qualified_name`` is the public address (``"account/service"``)
        — no ownership required, so this works against another tenant's
        service.  This is the uncontrolled-victim surface of the threat
        model: the victim is probe-able (anyone can time its responses)
        but not instrumentable (no guest code runs inside it).  Returns
        the observed response latency in seconds; the wait is charged to
        wall time.
        """
        return self._orchestrator.probe_service(qualified_name, processing_seconds)

    # ------------------------------------------------------------------
    # Billing
    # ------------------------------------------------------------------
    @property
    def cost_usd(self) -> float:
        """Accumulated bill for this account, including accruing activity."""
        return self._orchestrator.account_cost_usd(self.account_id)

    def reset_billing(self) -> None:
        """Zero the account's billing meter (between experiment runs)."""
        self._orchestrator.accounts[self.account_id].billing.reset()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _service(self, name: str) -> Service:
        try:
            return self._services[name]
        except KeyError:
            raise CloudError(
                f"service {name!r} was not deployed by this client"
            ) from None

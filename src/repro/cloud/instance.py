"""Container instances and their lifecycle.

The lifecycle mirrors the Cloud Run container contract (paper §2.2): an
instance is created to serve requests, stays *active* while it has open
connections, becomes *idle* when the last connection closes, and is sent
SIGTERM and destroyed if it stays idle too long.

An instance launched by the orchestrator boots its sandbox on first use
and frees it at termination.  Most instances of a launch-heavy campaign
are probed at most once and then idle out, so they never need one.  The
launch records a :class:`SandboxBoot` with everything an eager boot would
have read from the world at that moment, so the late sandbox is the one
an eager boot would have built.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, TypeVar

import numpy as np

from repro.cloud.services import Service
from repro.errors import InstanceGoneError
from repro.hardware.host import PhysicalHost
from repro.sandbox.base import Sandbox, TscPolicy
from repro.simtime.clock import SimClock

T = TypeVar("T")


class InstanceState(enum.Enum):
    """Lifecycle state of a container instance."""

    ACTIVE = "active"
    IDLE = "idle"
    TERMINATED = "terminated"


class SandboxBoot(NamedTuple):
    """What a sandbox reads from the world at boot, captured at launch.

    ``boot_wall_time`` is the clock at the launch commit: Gen 2 TSC
    offsetting and the emulated TSC count from it.  ``seed`` seeds the
    sandbox's private Generator, so the syscall layer's constant clock
    offset is that stream's first draw whenever the boot happens.
    """

    cls: type[Sandbox]
    host: PhysicalHost
    clock: SimClock
    seed: int
    tsc_policy: TscPolicy
    boot_wall_time: float


class ContainerInstance:
    """One running container instance of a service.

    Attributes
    ----------
    instance_id:
        Unique identifier (also the sandbox id on the host RNG).
    service:
        The service this instance belongs to.
    host_id:
        The physical host (simulator-side ground truth; never exposed to
        guests or to the attacker-facing API).
    sandbox_class:
        The sandbox generation's class; known without booting a sandbox
        and kept after termination.
    created_at / last_active_at:
        Lifecycle timestamps (simulated wall clock).
    active_since:
        Start of the current active period, or ``None`` while idle.
    on_sigterm:
        Callback invoked (with the current wall time) when the orchestrator
        sends SIGTERM before termination; the idle-termination experiment
        (Fig. 6) registers a reporter here.

    Pass either a built ``sandbox`` or a ``boot`` spec; with ``boot`` the
    sandbox is built on first use (:attr:`sandbox`, :meth:`run_probe`).
    Either way :meth:`terminate` frees it.
    """

    __slots__ = (
        "instance_id",
        "service",
        "host_id",
        "sandbox_class",
        "created_at",
        "state",
        "active_since",
        "last_active_at",
        "active_seconds_total",
        "on_sigterm",
        "_sandbox",
        "_boot",
    )

    def __init__(
        self,
        instance_id: str,
        service: Service,
        host_id: str,
        sandbox: Sandbox | None,
        created_at: float,
        *,
        boot: SandboxBoot | None = None,
    ) -> None:
        if (sandbox is None) == (boot is None):
            raise TypeError("pass exactly one of sandbox and boot")
        self.instance_id = instance_id
        self.service = service
        self.host_id = host_id
        self.sandbox_class = type(sandbox) if boot is None else boot.cls
        self.created_at = created_at
        self.state = InstanceState.ACTIVE
        self.active_since: float | None = created_at
        self.last_active_at = created_at
        self.active_seconds_total = 0.0
        self.on_sigterm: Callable[[float], None] | None = None
        self._sandbox = sandbox
        self._boot = boot

    def __repr__(self) -> str:
        return (
            f"ContainerInstance(instance_id={self.instance_id!r}, "
            f"host_id={self.host_id!r}, state={self.state}, "
            f"created_at={self.created_at!r}, "
            f"booted={self._sandbox is not None})"
        )

    @property
    def sandbox(self) -> Sandbox:
        """The sandboxed execution environment, booted on first access.

        Raises
        ------
        InstanceGoneError
            If the instance has been terminated (its sandbox is freed).
        """
        sandbox = self._sandbox
        return sandbox if sandbox is not None else self._boot_sandbox()

    def _boot_sandbox(self) -> Sandbox:
        self.require_alive()
        spec = self._boot
        sandbox = spec.cls(
            spec.host,
            spec.clock,
            np.random.default_rng(spec.seed),
            self.instance_id,
            spec.tsc_policy,
            boot_wall_time=spec.boot_wall_time,
        )
        self._sandbox = sandbox
        self._boot = None
        return sandbox

    @property
    def alive(self) -> bool:
        """True until the instance has been terminated."""
        return self.state is not InstanceState.TERMINATED

    def require_alive(self) -> None:
        """Raise :class:`InstanceGoneError` if the instance is terminated."""
        if not self.alive:
            raise InstanceGoneError(f"instance {self.instance_id!r} was terminated")

    def run_probe(self, probe: Callable[[Sandbox], T]) -> T:
        """Execute ``probe(sandbox)`` inside this instance if it is alive.

        The single execution gate shared by
        :meth:`repro.cloud.api.InstanceHandle.run` and the batched
        :meth:`repro.cloud.api.InstanceHandle.run_batch` engine hook: both
        paths check liveness the same way, so a terminated instance raises
        :class:`InstanceGoneError` identically under either engine.
        """
        self.require_alive()
        return probe(self.sandbox)

    def go_idle(self, now: float) -> None:
        """Transition ACTIVE -> IDLE, accumulating billable active time."""
        self.require_alive()
        if self.state is InstanceState.ACTIVE and self.active_since is not None:
            self.active_seconds_total += now - self.active_since
            self.active_since = None
        self.state = InstanceState.IDLE
        self.last_active_at = now

    def go_active(self, now: float) -> None:
        """Transition IDLE -> ACTIVE (a new connection arrived)."""
        self.require_alive()
        if self.state is InstanceState.IDLE:
            self.active_since = now
        self.state = InstanceState.ACTIVE

    def terminate(self, now: float) -> None:
        """Send SIGTERM and destroy the instance, freeing its sandbox."""
        if not self.alive:
            return
        if self.state is InstanceState.ACTIVE and self.active_since is not None:
            self.active_seconds_total += now - self.active_since
            self.active_since = None
        if self.on_sigterm is not None:
            self.on_sigterm(now)
        self.state = InstanceState.TERMINATED
        self._sandbox = None
        self._boot = None

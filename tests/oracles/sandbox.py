"""Self-contained sandboxes (reference for the row-view sandbox).

Each sandbox here owns a ``Generator`` seeded as ``default_rng(seed)``,
draws its wall-clock offset when it is built and counts its own system
calls.  ``src/``'s :class:`~repro.sandbox.base.Sandbox` is a view of an
instance row that draws through the row's stream instead; the twin tests
run a world whose instances run guest code in these eager sandboxes and
assert the same samples, verdicts and next draws.

:func:`tests.oracles.launch.bind_scalar_launch` builds one per launched
row, into the table's ``eager`` dict; :class:`EagerHandle` runs guest code
in it.
"""

from __future__ import annotations

from repro.cloud.api import InstanceHandle
from repro.fleet.instances import ContainerInstance
from repro.sandbox.base import Sandbox, TscPolicy
from repro.sandbox.gvisor import GVisorSandbox
from repro.sandbox.microvm import MicroVMSandbox


class EagerSandbox:
    """A sandbox that owns its stream, as every sandbox once did."""

    #: The row-view class this sandbox stands in for.
    view: type[Sandbox] = Sandbox
    BUS_LOCK_SLOWDOWN = Sandbox.BUS_LOCK_SLOWDOWN
    SERVE_JITTER = Sandbox.SERVE_JITTER

    def __init__(self, host, clock, rng, sandbox_id, tsc_policy=TscPolicy.NATIVE):
        self._host = host
        self._clock = clock
        self._rng = rng
        self.sandbox_id = sandbox_id
        self.tsc_policy = tsc_policy
        self.boot_wall_time = clock.now()
        self.sandbox_offset = host.syscall_noise.sample_sandbox_offset(rng)
        self.call_count = 0

    @property
    def generation(self) -> str:
        return self.view.generation

    def wall_clock(self) -> float:
        self.call_count += 1
        jitter = self._host.syscall_noise.sample_call_jitter(self._rng)
        return self._clock.now() + self.sandbox_offset + jitter

    def sleep(self, duration: float) -> None:
        overshoot = abs(self._host.syscall_noise.sample_call_jitter(self._rng))
        self._clock.sleep(max(0.0, duration) + overshoot)

    def _emulated_rdtsc(self) -> int:
        self.call_count += 1
        elapsed = self._clock.now() - self.boot_wall_time
        return int(elapsed * self._host.cpu.reported_tsc_frequency_hz)

    def cpuid_tsc_frequency(self):
        return None

    def kernel_tsc_khz(self) -> float:
        return self.view.host_kernel_tsc_khz(self._host, self.tsc_policy)

    def proc_uptime(self) -> float:
        return self._clock.now() - self.boot_wall_time

    def proc_cpuinfo_model(self) -> str:
        return "unknown"

    def start_channel_pressure(self, kind: str) -> None:
        self._host.channel_resource(kind).start_pressure(self.sandbox_id)

    def stop_channel_pressure(self, kind: str) -> None:
        self._host.channel_resource(kind).stop_pressure(self.sandbox_id)

    def serve_request(self, processing_seconds: float) -> float:
        lockers = self._host.memory_bus.pressurer_count
        return (
            processing_seconds
            * (1.0 + self.BUS_LOCK_SLOWDOWN * lockers)
            * (1.0 + self._rng.uniform(0.0, self.SERVE_JITTER))
        )


class EagerGVisorSandbox(EagerSandbox):
    view = GVisorSandbox

    def rdtsc(self) -> int:
        if self.tsc_policy is TscPolicy.EMULATED:
            return self._emulated_rdtsc()
        return self._host.tsc.read(self._clock.now())

    def cpuid_model(self) -> str:
        return self._host.cpu.name


class EagerMicroVMSandbox(EagerSandbox):
    view = MicroVMSandbox

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tsc_offset = self._host.tsc.offset_for_guest(self.boot_wall_time)

    def rdtsc(self) -> int:
        if self.tsc_policy is TscPolicy.EMULATED:
            return self._emulated_rdtsc()
        return self._host.tsc.read(self._clock.now()) - self._tsc_offset

    def cpuid_model(self) -> str:
        return MicroVMSandbox.VIRTUALIZED_MODEL


#: Row-view class -> the eager sandbox that stands in for it.
EAGER = {GVisorSandbox: EagerGVisorSandbox, MicroVMSandbox: EagerMicroVMSandbox}


class EagerInstance(ContainerInstance):
    """A row whose guest code runs in its eager sandbox."""

    __slots__ = ()

    @property
    def sandbox(self) -> EagerSandbox:
        self.require_alive()
        return self._rows.eager[self.row]


class EagerHandle(InstanceHandle):
    """A handle that runs guest code in its row's eager sandbox."""

    __slots__ = ()

    @property
    def _instance(self) -> EagerInstance:
        return EagerInstance(self._rows, self._row)


def eager_handles(handles) -> list[EagerHandle]:
    """The eager twin of each handle."""
    return [EagerHandle(handle._instance) for handle in handles]

"""Common sandbox interface exposed to guest probe programs.

The attacker's probe code (see :mod:`repro.core.probes`) is written once
against this interface and runs unchanged in both sandbox generations; what
differs is which operations succeed, which are emulated, and what hardware
state leaks through.
"""

from __future__ import annotations

import abc
import enum

import numpy as np

from repro.hardware.host import PhysicalHost
from repro.sandbox.syscalls import SyscallLayer
from repro.simtime.clock import SimClock


class TscPolicy(enum.Enum):
    """How the environment exposes the timestamp counter to guests.

    ``NATIVE``
        ``rdtsc`` executes on bare hardware (Gen 1 default) or with only a
        constant offset applied (Gen 2 default).
    ``EMULATED``
        The kernel/hypervisor traps ``rdtsc`` and serves a virtualized
        counter that starts at zero at sandbox boot and ticks at exactly the
        reported frequency — the mitigation discussed in paper §6.  This
        hides both the host's boot time and its true frequency, at the cost
        of syscall-priced timer reads.
    """

    NATIVE = "native"
    EMULATED = "emulated"


class Sandbox(abc.ABC):
    """Abstract sandboxed execution environment on one physical host.

    Parameters
    ----------
    host:
        The physical host this sandbox runs on.
    clock:
        Shared simulated wall clock.
    rng:
        Per-sandbox randomness source (jitter, scheduling noise).
    sandbox_id:
        Identifier used to register RNG pressure on the host.
    tsc_policy:
        Whether the TSC is exposed natively or emulated (mitigation).
    boot_wall_time:
        Wall time the sandbox booted at; defaults to now.  A sandbox built
        after its instance launched passes the launch time, which is what
        Gen 2 TSC offsetting and the emulated TSC count from.
    """

    #: Human-readable generation tag ("gen1" / "gen2").
    generation: str = "abstract"

    def __init__(
        self,
        host: PhysicalHost,
        clock: SimClock,
        rng: np.random.Generator,
        sandbox_id: str,
        tsc_policy: TscPolicy = TscPolicy.NATIVE,
        *,
        boot_wall_time: float | None = None,
    ) -> None:
        self._host = host
        self._clock = clock
        self._rng = rng
        self.sandbox_id = sandbox_id
        self.tsc_policy = tsc_policy
        self.boot_wall_time = clock.now() if boot_wall_time is None else boot_wall_time
        self.syscalls = SyscallLayer(host, clock, rng)

    # ------------------------------------------------------------------
    # Instruction-level surface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def rdtsc(self) -> int:
        """Execute the unprivileged ``rdtsc`` instruction."""

    @abc.abstractmethod
    def cpuid_model(self) -> str:
        """Return the CPU model string visible through ``cpuid``."""

    def cpuid_tsc_frequency(self) -> float | None:
        """TSC frequency reported by ``cpuid`` leaf 0x15, if enumerated.

        Cloud Run hosts do not enumerate it (paper §4.2), so both sandbox
        generations return ``None``; attackers fall back to the frequency
        labeled in the model name.
        """
        return None

    # ------------------------------------------------------------------
    # Kernel/VM surface
    # ------------------------------------------------------------------
    def wall_clock(self) -> float:
        """Read the wall clock through a (noisy) system call."""
        return self.syscalls.clock_gettime()

    def sleep(self, duration: float) -> None:
        """Sleep for ``duration`` seconds of wall time (plus jitter)."""
        self.syscalls.nanosleep(duration)

    def kernel_tsc_khz(self) -> float:
        """Read the kernel's refined TSC frequency, in kHz.

        Requires root inside a real kernel; only the Gen 2 guest can do it.

        Raises
        ------
        PrivilegeError
            In environments where the guest cannot reach a real kernel.
        """
        return self.host_kernel_tsc_khz(self._host, self.tsc_policy)

    @classmethod
    @abc.abstractmethod
    def host_kernel_tsc_khz(cls, host: PhysicalHost, tsc_policy: TscPolicy) -> float:
        """What :meth:`kernel_tsc_khz` reads in this generation on ``host``.

        The read depends on the host and the TSC policy alone and draws
        nothing, so an instance can answer it without booting a sandbox.
        """

    @abc.abstractmethod
    def proc_uptime(self) -> float:
        """Read ``/proc/uptime`` as visible inside the sandbox.

        Both generations virtualize it, so it never exposes host uptime.
        """

    def proc_cpuinfo_model(self) -> str:
        """Model name from the emulated ``/proc/cpuinfo`` (concealed)."""
        return "unknown"

    # ------------------------------------------------------------------
    # Shared-hardware covert channel
    # ------------------------------------------------------------------
    def start_channel_pressure(self, kind: str) -> None:
        """Begin pressuring one registered covert-channel kind (an RDRAND
        loop for ``rng``, an atomic-op loop for ``bus``, ...)."""
        self._host.channel_resource(kind).start_pressure(self.sandbox_id)

    def stop_channel_pressure(self, kind: str) -> None:
        """Stop pressuring one registered covert-channel kind."""
        self._host.channel_resource(kind).stop_pressure(self.sandbox_id)

    def observe_channel_contention(self, kind: str) -> int:
        """Sample one kind's contention level (must be pressuring it).

        The single scalar-observation entry point of the channel surface:
        per-kind draw semantics live entirely in the host's
        :class:`~repro.hardware.rng_resource.ContentionResource`, so every
        kind inherits the module-level draw-order contract unchanged.
        """
        return self._host.channel_resource(kind).observe(self.sandbox_id, self._rng)

    # ------------------------------------------------------------------
    # Request serving (victim-side latency surface)
    # ------------------------------------------------------------------

    #: Fractional response-time stretch per concurrent memory-bus locker.
    BUS_LOCK_SLOWDOWN = 0.9
    #: Upper bound of the uniform per-request scheduling jitter (fraction).
    SERVE_JITTER = 0.08

    def serve_request(self, processing_seconds: float) -> float:
        """Serve one inbound request; returns the response wall-time.

        Request handling is memory-bound, so response time stretches with
        the number of co-located tenants currently *locking* the memory
        bus (atomic-op loops): each locker adds :attr:`BUS_LOCK_SLOWDOWN`
        of the base processing time.  Ordinary scheduling noise appears
        as a uniform jitter bounded by :attr:`SERVE_JITTER` — well below
        one locker's slowdown, which is what lets the Target Victim
        Locator separate locked from unlocked with an *absolute* latency
        threshold instead of a differential one.
        """
        lockers = self._host.memory_bus.pressurer_count
        latency = (
            processing_seconds
            * (1.0 + self.BUS_LOCK_SLOWDOWN * lockers)
            * (1.0 + self._rng.uniform(0.0, self.SERVE_JITTER))
        )
        return latency

    # ------------------------------------------------------------------
    # Helpers shared by concrete sandboxes
    # ------------------------------------------------------------------
    def _emulated_rdtsc(self) -> int:
        """Virtualized TSC used under the EMULATED mitigation policy.

        Starts at zero at sandbox boot and ticks at exactly the reported
        frequency; the trap adds syscall-grade latency, modeled by counting
        the read as a system call.
        """
        self.syscalls.call_count += 1
        elapsed = self._clock.now() - self.boot_wall_time
        return int(elapsed * self._host.cpu.reported_tsc_frequency_hz)

"""Gen 1 execution environment: gVisor-sandboxed Linux container.

gVisor runs as a userspace kernel that intercepts system calls, concealing
host information such as the CPU model in ``/proc/cpuinfo`` and the host's
uptime (paper §2.3).  But it does *not* virtualize the hardware itself:
unprivileged instructions like ``rdtsc`` and ``cpuid`` execute directly on
the host CPU, which is exactly the leak the paper's Gen 1 fingerprint
exploits (§4.1).
"""

from __future__ import annotations

from repro.errors import PrivilegeError
from repro.hardware.host import PhysicalHost
from repro.sandbox.base import Sandbox, TscPolicy


class GVisorSandbox(Sandbox):
    """A gVisor-style sandbox around a Linux container (no virtualization).

    The covert-channel surface is inherited unchanged from
    :class:`~repro.sandbox.base.Sandbox`: ``RDRAND`` is an unprivileged
    instruction gVisor cannot intercept, so RNG-contention pressure and
    observation hit real shared hardware — which also makes the batched
    observation port (:meth:`~repro.sandbox.base.Sandbox.channel_port`)
    valid for Gen 1 without any generation-specific handling.
    """

    generation = "gen1"

    def rdtsc(self) -> int:
        """``rdtsc`` reaches host hardware: returns the raw host TSC.

        Under the ``EMULATED`` mitigation policy the host kernel traps the
        instruction (CR4.TSD) and serves a per-container virtual counter.
        """
        if self.tsc_policy is TscPolicy.EMULATED:
            return self._emulated_rdtsc()
        return self._host.tsc.read(self._clock.now())

    def cpuid_model(self) -> str:
        """``cpuid`` reaches host hardware: returns the real model string."""
        return self._host.cpu.name

    @classmethod
    def host_kernel_tsc_khz(cls, host: PhysicalHost, tsc_policy: TscPolicy) -> float:
        """Unavailable: the container only talks to gVisor, not a kernel.

        gVisor's userspace kernel does not expose the host's refined TSC
        frequency, so the Gen 2 technique of reading it does not transfer
        to Gen 1 (paper §4.5).
        """
        raise PrivilegeError(
            "gVisor does not expose the host kernel's refined TSC frequency"
        )

    def proc_uptime(self) -> float:
        """gVisor virtualizes host runtime state: uptime is sandbox-relative."""
        return self._clock.now() - self.boot_wall_time

    def proc_cpuinfo_model(self) -> str:
        """gVisor emulates ``/proc/cpuinfo`` and hides the host CPU model."""
        return "unknown"

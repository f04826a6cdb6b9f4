"""Gen 2 execution environment: lightweight VM with hardware virtualization.

In Gen 2 the guest runs on virtualized hardware: the hypervisor traps
``cpuid`` (hiding the host CPU model) and programs *TSC offsetting* so that
``rdtsc`` returns the host TSC minus its value at guest boot (paper §4.5).
Boot-time fingerprinting therefore only recovers the guest VM's boot time.

However, the guest TSC still ticks at the host's true rate, and KVM exports
the host kernel's *refined* TSC frequency to the guest for timekeeping.
Since the attacker has root inside the guest VM, reading that value is
trivial — and it becomes the Gen 2 host fingerprint.
"""

from __future__ import annotations

from repro import units
from repro.hardware.host import PhysicalHost
from repro.sandbox.base import Sandbox, TscPolicy

#: Precision to which Linux refines the TSC frequency at boot (paper §4.5).
KERNEL_REFINEMENT_PRECISION_HZ: float = 1.0 * units.KHZ


class MicroVMSandbox(Sandbox):
    """A Firecracker-style microVM sandbox (hardware virtualization).

    TSC offsetting and ``cpuid`` trapping reshape the *identification*
    surface, but the hypervisor does not virtualize shared-resource
    contention: ``RDRAND`` and memory-bus pressure still reach host
    hardware, so the inherited covert-channel surface behaves identically
    to Gen 1 (paper §4.5 relies on exactly this).
    """

    generation = "gen2"

    #: Model string the hypervisor fabricates for trapped ``cpuid``.
    VIRTUALIZED_MODEL = "Virtual CPU @ 2.00GHz"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # TSC offsetting: the hypervisor saves the host TSC at guest boot
        # and subtracts it from every guest read.
        self._tsc_offset = self._host.tsc.offset_for_guest(self.boot_wall_time)

    def rdtsc(self) -> int:
        """Guest ``rdtsc``: host TSC with the boot-time offset applied.

        Under the ``EMULATED`` mitigation the hypervisor traps the
        instruction entirely and serves a reported-frequency counter,
        hiding the host's true tick rate as well.
        """
        if self.tsc_policy is TscPolicy.EMULATED:
            return self._emulated_rdtsc()
        return self._host.tsc.read(self._clock.now()) - self._tsc_offset

    def cpuid_model(self) -> str:
        """``cpuid`` is trapped: the guest sees a fabricated model string."""
        return self.VIRTUALIZED_MODEL

    @classmethod
    def host_kernel_tsc_khz(cls, host: PhysicalHost, tsc_policy: TscPolicy) -> float:
        """Read the refined host TSC frequency exported by KVM, in kHz.

        The attacker has root in the guest, so this is a plain kernel read
        (e.g. ``/sys/devices/system/clocksource/.../tsc_khz``).  Linux only
        refines to 1 kHz precision, which is why distinct hosts can collide
        on this fingerprint (paper §4.5).

        Under the ``EMULATED`` mitigation the hypervisor advertises the
        reported frequency instead, masking the per-host deviation.
        """
        if tsc_policy is TscPolicy.EMULATED:
            return host.cpu.reported_tsc_frequency_hz / units.KHZ
        refined = host.tsc.refined_frequency_hz(KERNEL_REFINEMENT_PRECISION_HZ)
        return refined / units.KHZ

    def proc_uptime(self) -> float:
        """``/proc/uptime`` in the guest reflects guest, not host, uptime."""
        return self._clock.now() - self.boot_wall_time

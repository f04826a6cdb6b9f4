"""Per-probe fingerprint loops, the guest probes they run and the Gen 1
sample those return (reference for the columnar probes).

Each handle runs the guest probe in its own sandbox, in batch order,
booting the sandbox on first use.  The columnar Gen 1 probe and the
boot-free Gen 2 read must return what these loops return, raise the same
error at the same handle, and leave every sandbox stream where these
loops leave it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fingerprint import Gen1Fingerprint, Gen2Fingerprint
from repro.core.frequency import reported_tsc_frequency
from repro.errors import FingerprintError
from repro.sandbox.base import Sandbox


@dataclass(frozen=True)
class Gen1Sample:
    """One raw fingerprinting measurement taken inside a Gen 1 container.

    Attributes
    ----------
    cpu_model:
        Host CPU model string (via ``cpuid``).
    tsc_value:
        Raw TSC value (via ``rdtsc``).
    wall_time:
        Wall-clock time of the measurement ``T_w`` (via a system call).
    reported_frequency_hz:
        The reported TSC frequency ``f_r`` used to convert ticks to seconds.
    """

    cpu_model: str
    tsc_value: int
    wall_time: float
    reported_frequency_hz: float

    def boot_time(self) -> float:
        """Derived host boot time ``T_boot = T_w - tsc / f_r`` (Eq. 4.1)."""
        return self.wall_time - self.tsc_value / self.reported_frequency_hz

    def fingerprint(self, p_boot: float = 1.0) -> Gen1Fingerprint:
        """Round the derived boot time to ``p_boot`` and build a fingerprint."""
        return Gen1Fingerprint.from_boot_time(self.cpu_model, self.boot_time(), p_boot)


def gen1_fingerprint_probe(sandbox: Sandbox) -> Gen1Sample:
    """Take one Gen 1 fingerprinting sample: ``(model, tsc, T_w, f_r)``.

    The TSC and wall-clock reads are taken back to back so the derived boot
    time is internally consistent up to syscall jitter.
    """
    model = sandbox.cpuid_model()
    frequency = reported_tsc_frequency(sandbox)
    tsc = sandbox.rdtsc()
    wall = sandbox.wall_clock()
    return Gen1Sample(
        cpu_model=model,
        tsc_value=tsc,
        wall_time=wall,
        reported_frequency_hz=frequency,
    )


def gen2_fingerprint_probe(sandbox: Sandbox) -> float:
    """Read the refined host TSC frequency (kHz) from the guest kernel."""
    return sandbox.kernel_tsc_khz()


def environment_probe(sandbox: Sandbox) -> dict[str, object]:
    """Collect what the sandbox willingly reveals (all virtualized).

    Demonstrates why naive host fingerprinting fails on a FaaS platform:
    the sandbox hides the host CPU model in ``/proc`` and virtualizes
    uptime, leaving hardware interaction as the only signal.
    """
    return {
        "generation": sandbox.generation,
        "proc_cpuinfo_model": sandbox.proc_cpuinfo_model(),
        "proc_uptime": sandbox.proc_uptime(),
    }


def fingerprint_gen1_per_probe(handles, p_boot: float = 1.0):
    """``fingerprint_gen1_instances``, one probe per handle."""
    tagged: list[tuple[object, Gen1Fingerprint]] = []
    for handle in handles:
        try:
            sample = handle.run(gen1_fingerprint_probe)
        except FingerprintError:
            continue
        tagged.append((handle, sample.fingerprint(p_boot)))
    return tagged


def fingerprint_gen2_per_probe(handles):
    """``fingerprint_gen2_instances``, one probe per handle."""
    return [
        (handle, Gen2Fingerprint.from_khz(handle.run(gen2_fingerprint_probe)))
        for handle in handles
    ]

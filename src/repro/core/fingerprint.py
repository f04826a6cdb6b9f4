"""Host fingerprints (paper §4).

*Gen 1* fingerprint: the pair ``(CPU model, host boot time)``.  The boot
time is derived from one simultaneous reading of the TSC and the wall clock
(Eq. 4.1): ``T_boot = T_w - tsc / f`` where ``f`` is the TSC frequency.
Since measurements are noisy, ``T_boot`` is rounded to a precision
``p_boot`` (the sweet spot is 100 ms - 1 s, Fig. 4).

*Gen 2* fingerprint: the host kernel's refined TSC frequency, read from the
guest kernel (1 kHz precision).  No false negatives — co-located guests
always read the same value — but distinct hosts may collide (§4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cloud.api import InstanceHandle
from repro.errors import FingerprintError


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

    def fingerprint(self, p_boot: float = 1.0) -> "Gen1Fingerprint":
        """Round the derived boot time to ``p_boot`` and build a fingerprint."""
        return Gen1Fingerprint.from_boot_time(self.cpu_model, self.boot_time(), p_boot)


@dataclass(frozen=True)
class Gen1Fingerprint:
    """A Gen 1 host fingerprint: CPU model plus rounded boot time.

    The boot time is stored as an integer bucket index
    (``round(T_boot / p_boot)``) so that equality is exact and hashable.
    """

    cpu_model: str
    boot_bucket: int
    p_boot: float

    @classmethod
    def from_boot_time(
        cls, cpu_model: str, boot_time: float, p_boot: float
    ) -> "Gen1Fingerprint":
        """Build a fingerprint from an unrounded boot time."""
        if p_boot <= 0:
            raise FingerprintError(f"p_boot must be positive, got {p_boot!r}")
        return cls(cpu_model=cpu_model, boot_bucket=round(boot_time / p_boot), p_boot=p_boot)

    @property
    def boot_time(self) -> float:
        """The rounded boot time this fingerprint represents."""
        return self.boot_bucket * self.p_boot

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.cpu_model} | boot={self.boot_time:.3f}s (p={self.p_boot:g}s)"


@dataclass(frozen=True)
class Gen2Fingerprint:
    """A Gen 2 host fingerprint: the kernel's refined TSC frequency.

    Linux refines the frequency to 1 kHz precision, so the value is stored
    as an integer number of kHz.
    """

    tsc_khz: int

    @classmethod
    def from_khz(cls, khz: float) -> "Gen2Fingerprint":
        """Build a fingerprint from a raw kHz reading."""
        return cls(tsc_khz=round(khz))

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"tsc={self.tsc_khz}kHz"


def fingerprint_gen1_instances(
    handles: Sequence[InstanceHandle], p_boot: float = 1.0
) -> list[tuple[InstanceHandle, Gen1Fingerprint]]:
    """Collect Gen 1 fingerprints from a batch of container instances.

    Instances whose model name carries no frequency (the probe raises
    :class:`FingerprintError`) are skipped.  A terminated instance raises
    :class:`~repro.errors.InstanceGoneError` from its probe.
    """
    from repro.core import probes  # deferred: probes constructs Gen1Sample

    InstanceHandle.boot_batch(handles)
    tagged: list[tuple[InstanceHandle, Gen1Fingerprint]] = []
    for handle in handles:
        try:
            sample = handle.run(probes.gen1_fingerprint_probe)
        except FingerprintError:
            continue
        tagged.append((handle, sample.fingerprint(p_boot)))
    return tagged


def fingerprint_gen2_instances(
    handles: Sequence[InstanceHandle],
) -> list[tuple[InstanceHandle, Gen2Fingerprint]]:
    """Collect Gen 2 fingerprints from a batch of container instances."""
    from repro.core import probes  # deferred: avoids a circular import

    InstanceHandle.boot_batch(handles)
    tagged: list[tuple[InstanceHandle, Gen2Fingerprint]] = []
    for handle in handles:
        khz = handle.run(probes.gen2_fingerprint_probe)
        tagged.append((handle, Gen2Fingerprint.from_khz(khz)))
    return tagged


def group_by_fingerprint(
    tagged: Iterable[tuple[InstanceHandle, object]],
) -> dict[object, list[InstanceHandle]]:
    """Group instance handles by their fingerprint (step 1 of Fig. 3)."""
    groups: dict[object, list[InstanceHandle]] = {}
    for handle, fingerprint in tagged:
        groups.setdefault(fingerprint, []).append(handle)
    return groups

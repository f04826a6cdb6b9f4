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

import numpy as np
from numpy.typing import NDArray

from repro.cloud.api import HandleColumn, InstanceHandle, rows_of
from repro.errors import FingerprintError, PrivilegeError
from repro.fleet.instances import TERMINATED


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
        _check_precision(p_boot)
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


def _check_precision(p_boot: float) -> None:
    if p_boot <= 0:
        raise FingerprintError(f"p_boot must be positive, got {p_boot!r}")


def _gen1_columns(
    handles: Sequence[InstanceHandle],
) -> tuple[HandleColumn, NDArray[np.int64], list[str], NDArray[np.float64]]:
    """Probe a batch for Gen 1 samples: the fingerprinted handles in batch
    order (as a column), each one's model (as an index into the model
    list) and its unrounded boot time.

    The batch is probed as columns (:mod:`repro.fleet.probe`), each
    instance's sandbox stream moving as one
    :func:`~repro.core.probes.gen1_fingerprint_probe` moves it, so the
    result and every later draw equal the per-probe loop's.
    """
    from repro.fleet.probe import probe_gen1  # deferred: loads the port on first use

    table, rows = rows_of(handles)
    positions, codes, names, boot_times, stop = probe_gen1(table, rows)
    if stop < len(handles):
        handles[stop]._instance.require_alive()
    return HandleColumn(table, rows[positions]), codes, names, boot_times


def gen1_boot_times(
    handles: Sequence[InstanceHandle],
) -> list[tuple[InstanceHandle, str, float]]:
    """Unrounded Gen 1 samples of a batch: ``(handle, CPU model, T_boot)``.

    The same probe as :func:`fingerprint_gen1_instances`, before rounding,
    for callers that round one batch at several precisions.
    """
    kept, codes, names, boot_times = _gen1_columns(handles)
    return [
        (handle, names[code], boot_time)
        for handle, code, boot_time in zip(kept, codes.tolist(), boot_times.tolist())
    ]


def fingerprint_gen1_instances(
    handles: Sequence[InstanceHandle], p_boot: float = 1.0
) -> list[tuple[InstanceHandle, Gen1Fingerprint]]:
    """Collect Gen 1 fingerprints from a batch of container instances.

    Instances whose model name carries no frequency are skipped.  The
    batch is probed in order up to its first terminated instance, which
    then raises :class:`~repro.errors.InstanceGoneError`.  Instances that
    share a model and a boot-time bucket share one fingerprint object.
    """
    _check_precision(p_boot)
    kept, codes, names, boot_times = _gen1_columns(handles)
    # One key per (bucket, model) as a complex number; rint rounds half to
    # even, as round() does.
    keys = np.rint(boot_times / p_boot) + 1j * codes
    distinct, inverse = np.unique(keys, return_inverse=True)
    fingerprints = [
        Gen1Fingerprint(names[int(code)], int(bucket), p_boot)
        for bucket, code in zip(distinct.real.tolist(), distinct.imag.tolist())
    ]
    return list(zip(kept, map(fingerprints.__getitem__, inverse.reshape(-1).tolist())))


def fingerprint_gen2_instances(
    handles: Sequence[InstanceHandle],
) -> list[tuple[InstanceHandle, Gen2Fingerprint]]:
    """Collect Gen 2 fingerprints from a batch of container instances.

    The refined frequency is read once per distinct host and sandbox
    class of the batch, as the instances' kernels would report it
    (:meth:`~repro.sandbox.base.Sandbox.host_kernel_tsc_khz`), so the
    batch draws nothing.  A terminated instance
    raises :class:`~repro.errors.InstanceGoneError`, a Gen 1 one
    :class:`~repro.errors.PrivilegeError`, after the instances before it.
    """
    table, rows = rows_of(handles)
    if table is None:
        return []
    n_hosts = len(table.hosts)
    pairs, pair_of = np.unique(
        table.service[rows] * n_hosts + table.host[rows], return_inverse=True
    )
    pair_of = pair_of.reshape(-1)
    # Per distinct (service, host): its fingerprint, or the error reading it.
    read: list[Gen2Fingerprint | PrivilegeError] = []
    for pair in pairs.tolist():
        service, host = divmod(pair, n_hosts)
        try:
            khz = table.classes[service].host_kernel_tsc_khz(
                table.hosts[host], table.tsc_policy
            )
        except PrivilegeError as error:
            read.append(error)
        else:
            read.append(Gen2Fingerprint.from_khz(khz))
    failed = np.array([isinstance(value, PrivilegeError) for value in read])
    bad = np.flatnonzero(failed[pair_of] | (table.state[rows] == TERMINATED))
    if bad.size:
        position = int(bad[0])
        handles[position]._instance.require_alive()
        raise read[pair_of[position]]
    return list(zip(handles, map(read.__getitem__, pair_of.tolist())))


def group_by_fingerprint(
    tagged: Iterable[tuple[InstanceHandle, object]],
) -> dict[object, list[InstanceHandle]]:
    """Group instance handles by their fingerprint (step 1 of Fig. 3)."""
    groups: dict[object, list[InstanceHandle]] = {}
    for handle, fingerprint in tagged:
        groups.setdefault(fingerprint, []).append(handle)
    return groups

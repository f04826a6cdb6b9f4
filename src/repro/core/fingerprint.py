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

from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.typing import NDArray

from repro.cloud.api import HandleColumn, InstanceHandle, rows_of
from repro.errors import FingerprintError, PrivilegeError
from repro.fleet.instances import TERMINATED

if TYPE_CHECKING:
    from repro.fleet.probe import Gen1Columns


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


class FingerprintColumn(Sequence[tuple[InstanceHandle, Hashable]]):
    """The fingerprints of one batch, as columns: the handles in batch
    order (from fingerprinting, a ``HandleColumn`` of the kept rows), an
    int code per handle, and the distinct ``fingerprints`` the codes index
    (one code per distinct value).  Reads yield ``(handle, fingerprint)``
    pairs, built once on the first read; it equals any list of equal pairs.
    """

    __slots__ = ("handles", "codes", "fingerprints", "_pairs")

    def __init__(
        self,
        handles: Sequence[InstanceHandle],
        codes: NDArray[np.int64],
        fingerprints: list[Hashable],
    ) -> None:
        self.handles = handles
        self.codes = codes
        self.fingerprints = fingerprints
        self._pairs: list[tuple[InstanceHandle, Hashable]] | None = None

    @classmethod
    def of(cls, tagged: Iterable[tuple[InstanceHandle, Hashable]]) -> FingerprintColumn:
        """``tagged`` as a column: itself if it is one, else its pairs with
        each distinct fingerprint coded in order of first appearance."""
        if isinstance(tagged, FingerprintColumn):
            return tagged
        handles: list[InstanceHandle] = []
        codes: list[int] = []
        code_of: dict[Hashable, int] = {}
        for handle, fingerprint in tagged:
            handles.append(handle)
            codes.append(code_of.setdefault(fingerprint, len(code_of)))
        return cls(handles, np.array(codes, dtype=np.int64), list(code_of))

    def __len__(self) -> int:
        return int(self.codes.size)

    def __getitem__(self, index: Any) -> Any:  # an int or a slice, as on a list
        return self.pairs()[index]

    def __iter__(self) -> Iterator[tuple[InstanceHandle, Hashable]]:
        return iter(self.pairs())

    def pairs(self) -> list[tuple[InstanceHandle, Hashable]]:
        """The ``(handle, fingerprint)`` pairs, in batch order."""
        if self._pairs is None:
            fingerprints = map(self.fingerprints.__getitem__, self.codes.tolist())
            self._pairs = list(zip(self.handles, fingerprints))
        return self._pairs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (FingerprintColumn, list, tuple)):
            return self.pairs() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable-sequence equality


def gen1_samples(handles: Sequence[InstanceHandle]) -> tuple[HandleColumn, Gen1Columns]:
    """Probe a batch for Gen 1 samples as columns
    (:func:`~repro.fleet.probe.probe_gen1`): the sampled handles in batch
    order and what was measured, every stream moving as a per-probe
    loop's would.  A terminated instance raises
    :class:`~repro.errors.InstanceGoneError` after the instances before it.
    """
    from repro.fleet.probe import probe_gen1  # deferred: loads the port on first use

    table, rows = rows_of(handles)
    samples = probe_gen1(table, rows)
    if samples.stop < len(handles):
        handles[samples.stop]._instance.require_alive()
    return HandleColumn(table, rows[samples.positions]), samples


def gen1_boot_times(
    handles: Sequence[InstanceHandle],
) -> list[tuple[InstanceHandle, str, float]]:
    """Unrounded Gen 1 samples of a batch: ``(handle, CPU model, T_boot)``.

    The same probe as :func:`fingerprint_gen1_instances`, before rounding,
    for callers that round one batch at several precisions.
    """
    kept, samples = gen1_samples(handles)
    models = map(samples.model_names.__getitem__, samples.model_codes.tolist())
    return list(zip(kept, models, samples.boot_times.tolist()))


def fingerprint_gen1_instances(
    handles: Sequence[InstanceHandle], p_boot: float = 1.0
) -> FingerprintColumn:
    """Collect Gen 1 fingerprints from a batch of container instances.

    Instances whose model name carries no frequency are skipped.  The
    batch is probed in order up to its first terminated instance, which
    then raises :class:`~repro.errors.InstanceGoneError`.  Each distinct
    ``(model, boot-time bucket)`` is one fingerprint object and one code.
    """
    _check_precision(p_boot)
    kept, samples = gen1_samples(handles)
    # One key per (bucket, model) as a complex number; rint rounds half to
    # even, as round() does.
    keys = np.rint(samples.boot_times / p_boot) + 1j * samples.model_codes
    distinct, codes = np.unique(keys, return_inverse=True)
    names = samples.model_names
    fingerprints: list[Hashable] = [
        Gen1Fingerprint(names[int(code)], int(bucket), p_boot)
        for bucket, code in zip(distinct.real.tolist(), distinct.imag.tolist())
    ]
    return FingerprintColumn(kept, codes.reshape(-1), fingerprints)


def fingerprint_gen2_instances(handles: Sequence[InstanceHandle]) -> FingerprintColumn:
    """Collect Gen 2 fingerprints from a batch of container instances.

    The refined frequency is read once per distinct host and sandbox
    class of the batch, as the instances' kernels would report it
    (:meth:`~repro.sandbox.base.Sandbox.host_kernel_tsc_khz`), so the
    batch draws nothing; distinct hosts that read the same kHz value
    share one fingerprint and code.  A terminated instance
    raises :class:`~repro.errors.InstanceGoneError`, a Gen 1 one
    :class:`~repro.errors.PrivilegeError`, after the instances before it.
    """
    table, rows = rows_of(handles)
    if table is None:
        return FingerprintColumn(HandleColumn(table, rows), rows, [])
    n_hosts = len(table.hosts)
    pairs, pair_of = np.unique(
        table.service[rows] * n_hosts + table.host[rows], return_inverse=True
    )
    pair_of = pair_of.reshape(-1)
    # Per distinct (service, host): its kHz reading, or the error reading it.
    read: list[int | PrivilegeError] = []
    for pair in pairs.tolist():
        service, host = divmod(pair, n_hosts)
        try:
            khz = table.classes[service].host_kernel_tsc_khz(
                table.hosts[host], table.tsc_policy
            )
        except PrivilegeError as error:
            read.append(error)
        else:
            read.append(Gen2Fingerprint.from_khz(khz).tsc_khz)
    failed = np.array([isinstance(value, PrivilegeError) for value in read])
    bad = np.flatnonzero(failed[pair_of] | (table.state[rows] == TERMINATED))
    if bad.size:
        position = int(bad[0])
        handles[position]._instance.require_alive()
        raise read[pair_of[position]]  # type: ignore[misc]  # failed[...] says it is one
    values, code_of = np.unique(np.array(read, dtype=np.int64), return_inverse=True)
    fingerprints: list[Hashable] = [Gen2Fingerprint(khz) for khz in values.tolist()]
    return FingerprintColumn(HandleColumn(table, rows), code_of[pair_of], fingerprints)


def group_by_fingerprint(
    tagged: Iterable[tuple[InstanceHandle, Hashable]],
) -> dict[Hashable, list[InstanceHandle]]:
    """Group instance handles by their fingerprint (step 1 of Fig. 3).

    One stable argsort over the batch's codes
    (:meth:`FingerprintColumn.of`): groups come in order of first
    appearance, members in batch order, as a dict filled pair by pair
    would hold them.
    """
    column = FingerprintColumn.of(tagged)
    if not len(column):
        return {}
    order = np.argsort(column.codes, kind="stable")
    blocks = np.split(order, np.flatnonzero(np.diff(column.codes[order])) + 1)
    blocks.sort(key=lambda block: int(block[0]))  # a block starts at its first appearance
    pairs = column.pairs()
    return {
        pairs[block[0]][1]: [pairs[position][0] for position in block.tolist()]
        for block in blocks
    }

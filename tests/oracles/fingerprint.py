"""Per-probe fingerprint loops (reference for the columnar probes).

Each handle runs the guest probe in its own sandbox, in batch order,
booting the sandbox on first use.  The columnar Gen 1 probe and the
boot-free Gen 2 read must return what these loops return, raise the same
error at the same handle, and leave every sandbox stream where these
loops leave it.
"""

from __future__ import annotations

from repro.core import probes
from repro.core.fingerprint import Gen1Fingerprint, Gen2Fingerprint
from repro.errors import FingerprintError


def fingerprint_gen1_per_probe(handles, p_boot: float = 1.0):
    """``fingerprint_gen1_instances``, one probe per handle."""
    tagged: list[tuple[object, Gen1Fingerprint]] = []
    for handle in handles:
        try:
            sample = handle.run(probes.gen1_fingerprint_probe)
        except FingerprintError:
            continue
        tagged.append((handle, sample.fingerprint(p_boot)))
    return tagged


def fingerprint_gen2_per_probe(handles):
    """``fingerprint_gen2_instances``, one probe per handle."""
    return [
        (handle, Gen2Fingerprint.from_khz(handle.run(probes.gen2_fingerprint_probe)))
        for handle in handles
    ]

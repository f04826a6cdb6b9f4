"""Obtaining the TSC frequency inside a sandbox (paper §4.2).

Two methods:

1. **Reported frequency** — from ``cpuid`` leaf 0x15 if enumerated, else the
   base frequency labeled in the CPU model name.  Slightly wrong by a
   constant per-host error, which makes the derived boot time drift (the
   fingerprint "expires").

2. **Measured frequency** — read the TSC twice around a known wall-clock
   interval and divide.  Immune to drift, but the wall-clock interval can
   only be measured through noisy system calls; on ~10% of hosts the noise
   reaches 10 kHz - a few MHz, producing false negatives.  (The paper
   therefore uses the reported frequency.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FingerprintError
from repro.hardware.cpu import CPUModel
from repro.sandbox.base import Sandbox


def reported_tsc_frequency(sandbox: Sandbox) -> float:
    """Return the reported TSC frequency, in Hz.

    Prefers ``cpuid``'s TSC leaf; falls back to the frequency labeled in
    the model name (Cloud Run hosts do not enumerate the leaf).

    Raises
    ------
    FingerprintError
        If neither source yields a frequency.
    """
    from_leaf = sandbox.cpuid_tsc_frequency()
    if from_leaf is not None:
        return from_leaf
    model = sandbox.cpuid_model()
    from_name = CPUModel.parse_frequency_from_name(model)
    if from_name is None:
        raise FingerprintError(
            f"CPU model {model!r} does not expose a reported TSC frequency"
        )
    return from_name


@dataclass(frozen=True)
class FrequencyEstimate:
    """Result of measuring the TSC frequency in-sandbox.

    Attributes
    ----------
    mean_hz / std_hz:
        Sample mean and standard deviation across repetitions.
    samples_hz:
        The individual per-repetition estimates.
    """

    mean_hz: float
    std_hz: float
    samples_hz: tuple[float, ...]

    @property
    def repetitions(self) -> int:
        """Number of repetitions used."""
        return len(self.samples_hz)


def measure_tsc_frequency(
    sandbox: Sandbox, interval_s: float = 0.1, repetitions: int = 10
) -> FrequencyEstimate:
    """Measure the actual TSC frequency over wall-clock intervals.

    Each repetition reads ``(T_w, tsc)`` pairs ``interval_s`` apart and
    estimates ``f = delta_tsc / delta_T_w``.  Wall-clock reads go through
    the sandbox's system-call layer, so the estimate inherits the host's
    timing noise — the effect the paper quantifies in §4.2.
    """
    if repetitions < 2:
        raise FingerprintError(f"need at least 2 repetitions, got {repetitions}")
    samples = []
    for _ in range(repetitions):
        t1 = sandbox.wall_clock()
        tsc1 = sandbox.rdtsc()
        sandbox.sleep(interval_s)
        t2 = sandbox.wall_clock()
        tsc2 = sandbox.rdtsc()
        if t2 <= t1:
            continue  # pathological jitter; skip the repetition
        samples.append((tsc2 - tsc1) / (t2 - t1))
    if len(samples) < 2:
        raise FingerprintError("timing noise destroyed every frequency sample")
    array = np.asarray(samples)
    return FrequencyEstimate(
        mean_hz=float(array.mean()),
        std_hz=float(array.std(ddof=1)),
        samples_hz=tuple(float(s) for s in samples),
    )

"""The paper's core contribution: fingerprinting, verification, attacks.

Everything in this package runs strictly on the attacker side of the
black-box boundary: it talks to the platform through
:class:`~repro.cloud.api.FaaSClient` / :class:`~repro.cloud.api.InstanceHandle`
and to the hardware through guest probes, never touching simulator
internals.
"""

from repro.core.fingerprint import (
    Gen1Fingerprint,
    Gen2Fingerprint,
    fingerprint_gen1_instances,
    fingerprint_gen2_instances,
)
from repro.core.frequency import FrequencyEstimate, measure_tsc_frequency, reported_tsc_frequency
from repro.core.covert import (
    CTestResult,
    CovertChannel,
    MemoryBusCovertChannel,
    RngCovertChannel,
)
from repro.core.pairwise import PairwiseVerifier
from repro.core.verification import ScalableVerifier, VerificationReport

__all__ = [
    "Gen1Fingerprint",
    "Gen2Fingerprint",
    "fingerprint_gen1_instances",
    "fingerprint_gen2_instances",
    "FrequencyEstimate",
    "measure_tsc_frequency",
    "reported_tsc_frequency",
    "CTestResult",
    "CovertChannel",
    "MemoryBusCovertChannel",
    "RngCovertChannel",
    "PairwiseVerifier",
    "ScalableVerifier",
    "VerificationReport",
]

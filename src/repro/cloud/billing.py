"""Cloud Run-style billing.

The paper estimates attack cost with the published Cloud Run pricing model
(§4.3): for an instance requesting ``C`` vCPUs and ``M`` GB of memory that is
*active* for ``t`` seconds, the cost in USD is ``t * (C * R_cpu + M * R_mem)``
where ``R_cpu`` and ``R_mem`` are the per-vCPU-second and per-GB-second
rates.  Idle instances are charged nothing under the default (request-based)
billing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PricingRates:
    """Per-region pricing rates, in USD.

    The paper quotes, for us-east1/us-central1/us-west1 (tier 1 regions):
    R_cpu = ¢0.0024 per vCPU-second and R_mem = ¢0.00025 per GB-second.
    """

    cpu_usd_per_vcpu_second: float = 0.0024 / 100.0
    memory_usd_per_gb_second: float = 0.00025 / 100.0

    def active_cost(self, vcpus: float, memory_gb: float, active_seconds: float) -> float:
        """Cost of one instance being active for ``active_seconds``."""
        per_second = (
            vcpus * self.cpu_usd_per_vcpu_second
            + memory_gb * self.memory_usd_per_gb_second
        )
        return per_second * active_seconds


#: Rates for the three datacenters evaluated in the paper (identical tier).
TIER1_RATES = PricingRates()


@dataclass
class BillingMeter:
    """Accumulates billable vCPU-seconds and GB-seconds for one account.

    Attributes
    ----------
    rates:
        The region's pricing rates.
    vcpu_seconds:
        Total active vCPU-seconds billed so far.
    gb_seconds:
        Total active GB-seconds billed so far.
    """

    rates: PricingRates = field(default_factory=PricingRates)
    vcpu_seconds: float = 0.0
    gb_seconds: float = 0.0

    def charge_active(self, vcpus: float, memory_gb: float, active_seconds: float) -> None:
        """Record ``active_seconds`` of activity for one instance."""
        if active_seconds < 0:
            raise ValueError(f"active_seconds must be >= 0, got {active_seconds!r}")
        self.vcpu_seconds += vcpus * active_seconds
        self.gb_seconds += memory_gb * active_seconds

    def charge_active_many(
        self,
        vcpus: float | np.ndarray,
        memory_gb: float | np.ndarray,
        active_seconds: np.ndarray,
    ) -> None:
        """One :meth:`charge_active` per entry, in order.

        The running sums add one term at a time, left to right, so the
        meter ends bit-identical to the per-entry loop.
        """
        if min(active_seconds.tolist(), default=0.0) < 0:
            raise ValueError("active_seconds must be >= 0")
        for term in (vcpus * active_seconds).tolist():
            self.vcpu_seconds += term
        for term in (memory_gb * active_seconds).tolist():
            self.gb_seconds += term

    @property
    def total_usd(self) -> float:
        """Total accumulated cost in USD."""
        return (
            self.vcpu_seconds * self.rates.cpu_usd_per_vcpu_second
            + self.gb_seconds * self.rates.memory_usd_per_gb_second
        )

    def reset(self) -> None:
        """Zero the meter (used between experiment repetitions)."""
        self.vcpu_seconds = 0.0
        self.gb_seconds = 0.0


def pairwise_test_cost(
    n_instances: int,
    seconds_per_test: float,
    vcpus: float = 1.0,
    memory_gb: float = 0.5,
    rates: PricingRates = TIER1_RATES,
) -> tuple[int, float, float]:
    """Cost model for conventional pairwise covert-channel verification.

    All ``n_instances`` stay active for the duration of the serialized
    pairwise test campaign (tests are serialized to avoid interference), so
    the bill is ``n * T * (C*R_cpu + M*R_mem)`` where ``T`` is the total
    campaign duration.

    Returns
    -------
    (n_tests, total_seconds, total_usd)
    """
    n_tests = n_instances * (n_instances - 1) // 2
    total_seconds = n_tests * seconds_per_test
    total_usd = n_instances * rates.active_cost(vcpus, memory_gb, total_seconds)
    return n_tests, total_seconds, total_usd

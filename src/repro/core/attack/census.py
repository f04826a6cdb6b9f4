"""Estimating the size of a FaaS cluster (paper §5.2, Fig. 12).

The attacker deploys several services from *multiple* accounts (starting
exploration from different base hosts), primes each with optimized launches,
and counts unique apparent hosts (fingerprints) cumulatively.  The growth
flattening out is the signal that most of the serving fleet has been seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.analysis.aggregation import FootprintAccumulator
from repro.cloud.api import FaaSClient
from repro.cloud.services import ServiceConfig
from repro.core.fingerprint import fingerprint_gen1_instances


@dataclass
class CensusResult:
    """Outcome of a cluster-size estimation campaign.

    Attributes
    ----------
    cumulative_unique:
        Cumulative number of unique apparent hosts after each launch.
    per_launch:
        Number of apparent hosts in each individual launch.
    total_unique:
        Final estimate of the cluster size.
    """

    cumulative_unique: list[int] = field(default_factory=list)
    per_launch: list[int] = field(default_factory=list)

    @property
    def total_unique(self) -> int:
        return self.cumulative_unique[-1] if self.cumulative_unique else 0

    @property
    def n_launches(self) -> int:
        return len(self.per_launch)


def estimate_cluster_size(
    clients: list[FaaSClient],
    services_per_account: int = 8,
    launches_per_service: int = 4,
    instances_per_launch: int = 800,
    interval_s: float = 10 * units.MINUTE,
    p_boot: float = 1.0,
    service_prefix: str = "census",
) -> CensusResult:
    """Run the Fig. 12 census campaign.

    Each service is launched ``launches_per_service`` times at the priming
    interval (so later launches recruit helper hosts), then disconnected;
    fingerprints from every launch are merged into the cumulative count.
    Fingerprints drift far slower than the campaign duration, so equality
    across launches is safe at a 1-second rounding precision.
    """
    result = CensusResult()
    # Each launch folds in its distinct fingerprints only; pinned equal to
    # the per-launch set union by the aggregation equivalence suites.
    seen = FootprintAccumulator()
    for account_idx, client in enumerate(clients):
        names = [
            client.deploy(
                ServiceConfig(
                    name=f"{service_prefix}-{account_idx}-{i}",
                    max_instances=max(100, instances_per_launch),
                )
            )
            for i in range(services_per_account)
        ]
        for name in names:
            for launch_round in range(launches_per_service):
                round_start = client.now()
                handles = client.connect(name, instances_per_launch)
                tagged = fingerprint_gen1_instances(handles, p_boot=p_boot)
                launch_unique, cumulative = seen.add_launch(tagged.fingerprints)
                result.per_launch.append(launch_unique)
                result.cumulative_unique.append(cumulative)
                client.disconnect(name)
                if launch_round != launches_per_service - 1:
                    elapsed = client.now() - round_start
                    client.wait(max(0.0, interval_s - elapsed))
    return result

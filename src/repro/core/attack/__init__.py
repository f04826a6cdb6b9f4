"""Adversarial instance-launching strategies and attack campaigns (§5.2)."""

from repro.core.attack.campaign import ColocationCampaign, CoverageResult
from repro.core.attack.census import CensusResult, estimate_cluster_size
from repro.core.attack.locator import (
    LocatorResult,
    TargetVictimLocator,
    probe_latency_threshold,
)
from repro.core.attack.strategies import (
    LaunchOutcome,
    naive_launch,
    optimized_launch,
)
from repro.core.attack.targeting import VictimProfile, multi_account_footprint
from repro.core.attack.tracking import FingerprintHistory, HostTracker

__all__ = [
    "ColocationCampaign",
    "CoverageResult",
    "CensusResult",
    "estimate_cluster_size",
    "LocatorResult",
    "TargetVictimLocator",
    "probe_latency_threshold",
    "LaunchOutcome",
    "naive_launch",
    "optimized_launch",
    "VictimProfile",
    "multi_account_footprint",
    "FingerprintHistory",
    "HostTracker",
]

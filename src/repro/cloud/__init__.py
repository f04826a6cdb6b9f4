"""A simulated Cloud Run-style FaaS platform.

This package is the *substrate* the paper's attack runs against: a full
container-orchestration platform with accounts, services, autoscaling
container instances, a placement policy, idle termination, and billing.

The placement policy is synthesized from the paper's black-box observations
(Observations 1-6, §5.1): per-account *base hosts*, near-uniform spreading,
idle termination within ~12 minutes, and a load balancer that recruits
*helper hosts* for services that sustain high demand inside a 30-minute
window.  Attacker- and victim-side code interacts with the platform only
through :class:`~repro.cloud.api.FaaSClient`, preserving the paper's threat
model.
"""

from repro.cloud.accounts import Account
from repro.cloud.api import FaaSClient, InstanceHandle
from repro.cloud.billing import BillingMeter, PricingRates
from repro.cloud.datacenter import DataCenter
from repro.cloud.orchestrator import Orchestrator
from repro.cloud.platform import (
    PLATFORM_PROFILES,
    PlatformProfile,
    current_platform,
    platform_context,
    platform_profile,
)
from repro.cloud.services import ContainerSize, Service, ServiceConfig
from repro.cloud.topology import REGION_PROFILES, RegionProfile, region_profile
from repro.cloud.traffic import (
    BackgroundDriver,
    TenantPopulation,
    TrafficConfig,
    TrafficStats,
)
from repro.cloud.workloads import (
    BurstLoad,
    ConstantLoad,
    DiurnalLoad,
    PoissonLoad,
    RequestPattern,
)
from repro.fleet import ContainerInstance, InstanceState

__all__ = [
    "Account",
    "FaaSClient",
    "InstanceHandle",
    "BurstLoad",
    "ConstantLoad",
    "DiurnalLoad",
    "PoissonLoad",
    "RequestPattern",
    "BillingMeter",
    "PricingRates",
    "DataCenter",
    "ContainerInstance",
    "InstanceState",
    "Orchestrator",
    "ContainerSize",
    "Service",
    "ServiceConfig",
    "REGION_PROFILES",
    "RegionProfile",
    "region_profile",
    "PLATFORM_PROFILES",
    "PlatformProfile",
    "current_platform",
    "platform_context",
    "platform_profile",
    "BackgroundDriver",
    "TenantPopulation",
    "TrafficConfig",
    "TrafficStats",
]

"""Services, container sizes, and container images.

A *service* (the paper uses "function" and "service" interchangeably) is a
deployed container image plus resource configuration.  Table 1 of the paper
defines four container sizes used throughout the evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import CloudError


@dataclass(frozen=True)
class ContainerSize:
    """Resource specification of a container instance (paper Table 1)."""

    name: str
    vcpus: float
    memory_gb: float

    @property
    def slots(self) -> float:
        """Host capacity slots consumed; one slot = one Small instance.

        Sized by the dominant resource so that, e.g., a Large instance
        (4 vCPU / 4 GB) displaces four Small instances (1 vCPU / 0.5 GB).
        """
        return max(self.vcpus, self.memory_gb, 0.25)


#: The four sizes defined for the paper's evaluation (Table 1).
PICO = ContainerSize("Pico", vcpus=0.25, memory_gb=0.256)
SMALL = ContainerSize("Small", vcpus=1.0, memory_gb=0.512)
MEDIUM = ContainerSize("Medium", vcpus=2.0, memory_gb=1.0)
LARGE = ContainerSize("Large", vcpus=4.0, memory_gb=4.0)

#: Lookup by name for configuration files and CLI-style callers.
CONTAINER_SIZES: dict[str, ContainerSize] = {
    size.name: size for size in (PICO, SMALL, MEDIUM, LARGE)
}


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment-time configuration of a service.

    Attributes
    ----------
    name:
        Service name, unique within an account.
    size:
        Container resource specification.
    generation:
        Execution environment: ``"gen1"`` (gVisor, default on Cloud Run) or
        ``"gen2"`` (microVM).
    max_instances:
        Autoscaling limit.  Cloud Run defaults to 100 and allows up to 1000;
        instance creation slows as the count approaches 1000 (paper §4.4.1).
    concurrency:
        Requests per instance before the autoscaler adds instances.  The
        paper pins it to 1 so that N connections force N instances.
    """

    name: str
    size: ContainerSize = SMALL
    generation: str = "gen1"
    max_instances: int = 100
    concurrency: int = 1

    def __post_init__(self) -> None:
        if self.generation not in ("gen1", "gen2"):
            raise CloudError(f"unknown execution environment: {self.generation!r}")
        if not 1 <= self.max_instances <= 1000:
            raise CloudError(
                f"max_instances must be in [1, 1000], got {self.max_instances!r}"
            )
        if self.concurrency < 1:
            raise CloudError(f"concurrency must be >= 1, got {self.concurrency!r}")

    def target_for(self, concurrency: int) -> int:
        """Instances needed for ``concurrency`` concurrent requests."""
        return min(math.ceil(concurrency / self.concurrency), self.max_instances)


@dataclass
class Service:
    """A deployed service and its orchestrator-side runtime state."""

    config: ServiceConfig
    account_id: str
    image_id: str
    #: Hosts recruited by the load balancer for this service (helper hosts).
    helper_host_ids: list[str] = field(default_factory=list)
    #: (wall_time, concurrent_instances) peaks, for the demand history.
    demand_events: list[tuple[float, int]] = field(default_factory=list)

    @property
    def qualified_name(self) -> str:
        """Globally unique service identifier."""
        return f"{self.account_id}/{self.config.name}"

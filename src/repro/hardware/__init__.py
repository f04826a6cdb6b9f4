"""Simulated host hardware.

This package models the pieces of physical-host hardware that the paper's
fingerprinting techniques touch: the CPU identification surface (``cpuid``),
the invariant timestamp counter (``rdtsc``/``rdtscp``), and the shared
hardware random number generator used as a covert channel.
"""

from repro.hardware.channels import (
    ChannelKind,
    DvfsFrequencyResource,
    LlcOccupancyResource,
    channel_kind,
    register_channel_kind,
    registered_channel_kinds,
    unregister_channel_kind,
)
from repro.hardware.cpu import CPUModel, DEFAULT_CPU_CATALOG, cpu_catalog
from repro.hardware.host import HostFleetConfig, PhysicalHost, build_fleet
from repro.hardware.noise import (
    SyscallNoiseModel,
    TscErrorModel,
    problematic_noise_model,
    quiet_noise_model,
)
from repro.hardware.rng_resource import ContentionResource
from repro.hardware.tsc import TimestampCounter

__all__ = [
    "CPUModel",
    "DEFAULT_CPU_CATALOG",
    "cpu_catalog",
    "ChannelKind",
    "channel_kind",
    "register_channel_kind",
    "registered_channel_kinds",
    "unregister_channel_kind",
    "HostFleetConfig",
    "PhysicalHost",
    "build_fleet",
    "SyscallNoiseModel",
    "TscErrorModel",
    "problematic_noise_model",
    "quiet_noise_model",
    "ContentionResource",
    "LlcOccupancyResource",
    "DvfsFrequencyResource",
    "TimestampCounter",
]

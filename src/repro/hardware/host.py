"""Physical hosts and fleet construction.

A :class:`PhysicalHost` bundles the hardware a sandboxed attacker can touch:
the CPU identification surface, the invariant TSC, and the shared RNG.  The
:func:`build_fleet` factory draws a datacenter's worth of hosts with
realistic diversity:

* boot times spread over weeks, with a fraction booted in *maintenance
  waves* (many hosts rebooted within the same hour) — this is what makes
  very coarse boot-time rounding collide distinct hosts (Fig. 4, right end);
* a constant per-host reported-vs-actual TSC frequency error (drift);
* ~10% "problematic" hosts whose syscall timing is too noisy for the
  measured-frequency method (paper §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro import units
from repro.hardware.channels import channel_kind
from repro.hardware.cpu import CPUModel, DEFAULT_CPU_CATALOG
from repro.hardware.noise import (
    SyscallNoiseModel,
    TscErrorModel,
    problematic_noise_model,
    quiet_noise_model,
)
from repro.hardware.rng_resource import ContentionResource
from repro.hardware.tsc import TimestampCounter


@dataclass
class PhysicalHost:
    """One physical machine in a FaaS datacenter.

    Attributes
    ----------
    host_id:
        Stable identifier; used only by the simulator and the ground-truth
        bookkeeping, never visible to sandboxed guests.
    cpu:
        The CPU model exposed through ``cpuid``.
    tsc:
        The host's invariant timestamp counter.
    rng_resource:
        The shared hardware RNG contention domain (the paper's covert
        channel: background contention under 1%).
    memory_bus:
        The shared memory-bus contention domain (the prior-work channel of
        Wu et al./Varadarajan et al.): same semantics, but ordinary tenant
        traffic makes background contention far more common, which is why
        the paper prefers the RNG.
    syscall_noise:
        Jitter model applied to sandboxed wall-clock reads on this host.
    problematic_timing:
        True for hosts whose timing noise defeats measured-frequency
        estimation.
    capacity_slots:
        How many Small-sized container instances the host can hold; larger
        containers consume proportionally more slots.
    channel_noise:
        Per-channel-kind background-noise multipliers (a
        :class:`~repro.cloud.platform.PlatformProfile` knob).  Kinds absent
        from the mapping keep their registry-default rates; an empty
        mapping (the default) leaves every eagerly-built resource object
        untouched, preserving byte-identity.
    """

    host_id: str
    cpu: CPUModel
    tsc: TimestampCounter
    rng_resource: ContentionResource = field(default_factory=ContentionResource)
    memory_bus: ContentionResource = field(
        default_factory=lambda: ContentionResource(
            background_rate=0.18, drop_rate=0.05
        )
    )
    syscall_noise: SyscallNoiseModel = field(default_factory=quiet_noise_model)
    problematic_timing: bool = False
    capacity_slots: float = 160.0
    channel_noise: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Platform noise on the two eagerly-built channels replaces the
        # field object *before* anything registers pressure, so the field
        # and the channel table always name the same resource.  With no
        # multiplier (or exactly 1.0) the default-factory objects survive
        # untouched — byte-identical to the pre-registry host.
        for kind_name in ("rng", "bus"):
            multiplier = float(self.channel_noise.get(kind_name, 1.0))
            if multiplier != 1.0:
                resource = channel_kind(kind_name).build_resource(multiplier)
                if kind_name == "rng":
                    self.rng_resource = resource
                else:
                    self.memory_bus = resource
        #: kind name -> shared contention domain.  Seeded with the two
        #: eager field resources; other registered kinds are built lazily
        #: on first use (so merely *registering* a kind never perturbs any
        #: existing resource or RNG stream).
        self._channels: dict[str, ContentionResource] = {
            "rng": self.rng_resource,
            "bus": self.memory_bus,
        }

    @property
    def boot_time(self) -> float:
        """Wall-clock boot time of this host."""
        return self.tsc.boot_time

    def channel_resource(self, kind: str) -> ContentionResource:
        """The shared contention domain for one covert-channel kind.

        Kinds come from the :mod:`repro.hardware.channels` registry
        (``"rng"``, ``"bus"``, ``"llc"``, ``"dvfs"``, plus anything
        registered later); the batched CTest engine resolves its per-host
        observation target through this single lookup, so a new channel
        kind needs only a registry entry.  Unknown kinds raise a
        ``ValueError`` naming the registered kinds.
        """
        resource = self._channels.get(kind)
        if resource is None:
            descriptor = channel_kind(kind)
            resource = descriptor.build_resource(
                float(self.channel_noise.get(kind, 1.0))
            )
            self._channels[kind] = resource
        return resource

    def release_pressure(self, instance_id: str) -> None:
        """Unregister an instance from every instantiated channel domain.

        Termination-time cleanup: a destroyed container's guest loops stop
        executing, so whatever hardware pressure it still held is released
        with it.  Only channels this host has actually served are touched
        (lazily-built kinds that never came up have no pressurers).
        """
        for resource in self._channels.values():
            resource.stop_pressure(instance_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhysicalHost({self.host_id!r}, cpu={self.cpu.name!r})"


@dataclass(frozen=True)
class HostFleetConfig:
    """Knobs for synthesizing a datacenter host fleet.

    Attributes
    ----------
    n_hosts:
        Fleet size.
    boot_window_days:
        Hosts booted between ``now - boot_window_days`` and ``now - 1`` day.
    maintenance_wave_fraction:
        Fraction of hosts booted during one of ``n_maintenance_waves``
        fleet-wide reboot waves (within +-30 minutes of the wave).
    n_maintenance_waves:
        Number of reboot waves inside the boot window.
    problematic_fraction:
        Fraction of hosts with unusable measured-frequency timing (~10%).
    tsc_error:
        Distribution of the per-host reported-frequency error.
    capacity_slots:
        Per-host capacity in Small-instance slots.
    cpu_catalog:
        ``(model, weight)`` pairs to draw CPU models from.
    channel_noise:
        ``(kind, multiplier)`` pairs applied to every host's channel
        background rates (see :attr:`PhysicalHost.channel_noise`); a tuple
        so the config stays frozen/hashable.  Empty means registry
        defaults everywhere.
    """

    n_hosts: int
    boot_window_days: float = 60.0
    maintenance_wave_fraction: float = 0.65
    n_maintenance_waves: int = 5
    problematic_fraction: float = 0.10
    tsc_error: TscErrorModel = field(default_factory=TscErrorModel)
    capacity_slots: float = 160.0
    cpu_catalog: tuple[tuple[CPUModel, float], ...] = DEFAULT_CPU_CATALOG
    channel_noise: tuple[tuple[str, float], ...] = ()


def _sample_boot_times(
    config: HostFleetConfig, now: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw boot times mixing uniform background with maintenance waves."""
    window = config.boot_window_days * units.DAY
    earliest = now - window
    latest = now - 1.0 * units.DAY
    wave_times = rng.uniform(earliest, latest, size=config.n_maintenance_waves)

    boots = np.empty(config.n_hosts)
    in_wave = rng.random(config.n_hosts) < config.maintenance_wave_fraction
    n_wave = int(in_wave.sum())
    # Wave members boot within +-30 minutes of their wave's start.
    chosen_waves = rng.choice(wave_times, size=n_wave)
    boots[in_wave] = chosen_waves + rng.uniform(
        -30 * units.MINUTE, 30 * units.MINUTE, size=n_wave
    )
    boots[~in_wave] = rng.uniform(earliest, latest, size=config.n_hosts - n_wave)
    return np.clip(boots, earliest - units.HOUR, latest)


def build_fleet(
    config: HostFleetConfig,
    now: float,
    rng: np.random.Generator,
    id_prefix: str = "host",
) -> list[PhysicalHost]:
    """Synthesize a fleet of :class:`PhysicalHost` objects.

    Parameters
    ----------
    config:
        Fleet composition knobs.
    now:
        Current simulated time; boot times are drawn in the past relative
        to it.
    rng:
        Source of randomness (seed it for reproducibility).
    id_prefix:
        Prefix for generated host identifiers.
    """
    models = [model for model, _ in config.cpu_catalog]
    weights = np.array([weight for _, weight in config.cpu_catalog], dtype=float)
    weights /= weights.sum()
    model_idx = rng.choice(len(models), size=config.n_hosts, p=weights)
    boot_times = _sample_boot_times(config, now, rng)
    channel_noise = dict(config.channel_noise)

    hosts: list[PhysicalHost] = []
    for i in range(config.n_hosts):
        cpu = models[int(model_idx[i])]
        epsilon = config.tsc_error.sample_epsilon(rng)
        actual_freq = cpu.reported_tsc_frequency_hz - epsilon
        problematic = bool(rng.random() < config.problematic_fraction)
        hosts.append(
            PhysicalHost(
                host_id=f"{id_prefix}-{i:05d}",
                cpu=cpu,
                tsc=TimestampCounter(
                    boot_time=float(boot_times[i]), actual_frequency_hz=actual_freq
                ),
                syscall_noise=(
                    problematic_noise_model() if problematic else quiet_noise_model()
                ),
                problematic_timing=problematic,
                capacity_slots=config.capacity_slots,
                channel_noise=channel_noise,
            )
        )
    return hosts

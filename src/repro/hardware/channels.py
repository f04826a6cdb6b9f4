"""The covert-channel kind registry.

Every covert channel the CTest pipeline can run over is described once,
here, by a :class:`ChannelKind`: the contention-domain parameters a
:class:`~repro.hardware.host.PhysicalHost` needs to build the shared
resource.  Hosts, sandboxes, and :class:`~repro.core.covert.CovertChannel`
subclasses all resolve a kind through this registry instead of hard-coded
string branches, so adding a channel is one :func:`register_channel_kind`
call plus a resource/verdict model — nothing in the host, sandbox, or
engine layers changes.

Extension contract (what keeps a new kind on the one batch-wide
:func:`~repro.hardware.rng_resource.window_hits` CTest engine):

* the resource class must not override
  :meth:`~repro.hardware.rng_resource.ContentionResource.observe`, the
  scalar model ``window_hits`` reproduces in arrays
  (:func:`register_channel_kind` rejects a class that does);
* channel physics beyond background/drop rates must be expressed as pure
  post-draw transforms (``saturation`` clamping, the DVFS level-to-frequency
  map) so draw order stays byte-identical to the scalar reference;
* registering a kind must not build any resource eagerly — hosts
  instantiate per-kind resources lazily on first use, so registration can
  never perturb existing kinds' RNG draw order (pinned by a Hypothesis
  property test).

The four built-in kinds: ``rng`` (the paper's RDRAND channel), ``bus``
(the Wu et al. memory-bus channel), ``llc`` (cache-occupancy contention per
Zhao & Fletcher — coarse per-round signal, higher cross-tenant noise
floor), and ``dvfs`` (frequency-step contention per Dipta et al. — the
observation is a sustained-load frequency trace).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.rng_resource import ContentionResource


class LlcOccupancyResource(ContentionResource):
    """Last-level-cache occupancy contention domain (Zhao & Fletcher).

    A pressurer sweeps a buffer sized to the LLC; an observer infers
    co-located sweepers from its own eviction rate.  Two properties set it
    apart from the RNG channel: ordinary tenant working sets keep the cache
    warm (a much higher background-contention floor), and occupancy stops
    resolving individual sweepers once the cache is fully thrashed (the
    observation *saturates*).  Both are parameters of the shared
    :class:`~repro.hardware.rng_resource.ContentionResource` model — no
    method is overridden, so the kind registers under the batched
    engine's contract.
    """

    def __init__(
        self,
        background_rate: float = 0.12,
        drop_rate: float = 0.10,
        saturation: int | None = 8,
    ) -> None:
        super().__init__(
            background_rate=background_rate,
            drop_rate=drop_rate,
            saturation=saturation,
        )


class DvfsFrequencyResource(ContentionResource):
    """DVFS frequency-step contention domain (Dipta et al.).

    Sustained load on co-located cores drives the package power budget
    down, stepping the core frequency; an instance running a calibrated
    spin loop reads its own achieved frequency and infers co-located
    sustained loads from the step depth.  The contention *level* follows
    the shared draw model; :meth:`frequency_of_level` is the pure post-hoc
    map from a level to the steady-state frequency the guest would time —
    applied after the draws, so draw order matches every other kind.

    Parameters
    ----------
    base_frequency_hz:
        Unthrottled sustained-load frequency of one core.
    step_fraction:
        Fractional frequency drop per concurrent sustained load.
    floor_fraction:
        Thermal floor: the frequency never drops below this fraction of
        base, however many tenants pile on.
    """

    def __init__(
        self,
        background_rate: float = 0.06,
        drop_rate: float = 0.04,
        saturation: int | None = None,
        base_frequency_hz: float = 3.0e9,
        step_fraction: float = 0.05,
        floor_fraction: float = 0.4,
    ) -> None:
        super().__init__(
            background_rate=background_rate,
            drop_rate=drop_rate,
            saturation=saturation,
        )
        if not 0.0 < step_fraction < 1.0:
            raise ValueError(f"step_fraction out of range: {step_fraction!r}")
        if not 0.0 < floor_fraction <= 1.0:
            raise ValueError(f"floor_fraction out of range: {floor_fraction!r}")
        self.base_frequency_hz = base_frequency_hz
        self.step_fraction = step_fraction
        self.floor_fraction = floor_fraction

    def frequency_of_level(self, level):
        """Steady-state sustained-load frequency at a contention level.

        Pure and monotone decreasing in ``level`` (until the thermal
        floor), so thresholding a frequency trace at
        ``frequency_of_level(m)`` is equivalent to thresholding the level
        trace at ``m`` — which is how
        :class:`~repro.core.covert.DvfsFingerprintChannel` keeps the CTest
        verdict machinery unchanged.  Accepts a scalar or an array.
        """
        scale = np.maximum(
            self.floor_fraction, 1.0 - self.step_fraction * np.asarray(level)
        )
        result = self.base_frequency_hz * scale
        return float(result) if np.ndim(level) == 0 else result


@dataclass(frozen=True)
class ChannelKind:
    """Descriptor of one registered covert-channel kind.

    Attributes
    ----------
    name:
        Registry key (``"rng"``, ``"bus"``, ...).
    description:
        One-line human-readable summary.
    background_rate / drop_rate:
        Default contention-model rates for the kind's shared resource.
    resource_cls:
        Class instantiated per host (a
        :class:`~repro.hardware.rng_resource.ContentionResource` or a
        subclass that keeps ``observe`` untouched).
    """

    name: str
    description: str
    background_rate: float
    drop_rate: float
    resource_cls: type[ContentionResource] = ContentionResource

    def build_resource(self, noise_multiplier: float = 1.0) -> ContentionResource:
        """Instantiate the kind's per-host shared resource.

        ``noise_multiplier`` scales the background-contention rate (the
        per-channel knob of a
        :class:`~repro.cloud.platform.PlatformProfile`), capped below 1.
        A multiplier of exactly 1.0 reproduces the default rate bit-for-bit
        (``x * 1.0 == x`` in IEEE 754), preserving byte-identity for the
        default platform.
        """
        if noise_multiplier <= 0.0:
            raise ValueError(
                f"noise multiplier for channel {self.name!r} must be > 0, "
                f"got {noise_multiplier!r}"
            )
        return self.resource_cls(
            background_rate=min(0.95, self.background_rate * noise_multiplier),
            drop_rate=self.drop_rate,
        )


_CHANNEL_KINDS: dict[str, ChannelKind] = {}


def register_channel_kind(kind: ChannelKind) -> ChannelKind:
    """Register (or error on re-registering) a covert-channel kind.

    Registration is metadata-only: no resource is built until a host first
    serves the kind, so registering can never perturb existing kinds' RNG
    draw order.  A ``resource_cls`` that overrides the contention model's
    ``observe`` is rejected: the CTest engine draws every window through
    :func:`~repro.hardware.rng_resource.window_hits`, which reproduces the
    base ``observe`` and would silently ignore an override.
    """
    if kind.name in _CHANNEL_KINDS:
        raise ValueError(f"covert-channel kind {kind.name!r} already registered")
    if kind.resource_cls.observe is not ContentionResource.observe:
        raise ValueError(
            f"covert-channel kind {kind.name!r}: resource class "
            f"{kind.resource_cls.__name__} overrides ContentionResource.observe, "
            f"which window_hits reproduces"
        )
    _CHANNEL_KINDS[kind.name] = kind
    return kind


def unregister_channel_kind(name: str) -> None:
    """Remove a registered kind (test scaffolding; built-ins stay put)."""
    if name in _BUILTIN_KINDS:
        raise ValueError(f"built-in covert-channel kind {name!r} cannot be removed")
    _CHANNEL_KINDS.pop(name, None)


def channel_kind(name: str) -> ChannelKind:
    """Look up a kind descriptor; unknown names list what *is* registered."""
    try:
        return _CHANNEL_KINDS[name]
    except KeyError:
        known = ", ".join(sorted(_CHANNEL_KINDS))
        raise ValueError(
            f"unknown covert-channel resource kind: {name!r}; "
            f"registered kinds: {known}"
        ) from None


def registered_channel_kinds() -> tuple[str, ...]:
    """Names of every registered kind, in registration order."""
    return tuple(_CHANNEL_KINDS)


register_channel_kind(
    ChannelKind(
        name="rng",
        description="hardware-RNG (RDRAND) contention — the paper's channel",
        background_rate=0.005,
        drop_rate=0.02,
    )
)
register_channel_kind(
    ChannelKind(
        name="bus",
        description="memory-bus locking contention (Wu et al.)",
        background_rate=0.18,
        drop_rate=0.05,
    )
)
register_channel_kind(
    ChannelKind(
        name="llc",
        description="LLC cache-occupancy contention (Zhao & Fletcher)",
        background_rate=0.12,
        drop_rate=0.10,
        resource_cls=LlcOccupancyResource,
    )
)
register_channel_kind(
    ChannelKind(
        name="dvfs",
        description="DVFS frequency-step contention (Dipta et al.)",
        background_rate=0.06,
        drop_rate=0.04,
        resource_cls=DvfsFrequencyResource,
    )
)

#: Kinds that ship with the package (and may not be unregistered).
_BUILTIN_KINDS = frozenset(_CHANNEL_KINDS)

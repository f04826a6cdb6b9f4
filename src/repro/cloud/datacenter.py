"""A datacenter: host fleet, serving pool, and placement shards.

The datacenter owns the physical substrate.  Its serving pool (the hosts
currently accepting new FaaS instances) slowly *rotates* through the fleet,
which is why a census across many launches keeps discovering new hosts while
any single moment shows far fewer (paper Fig. 12).  The serving pool is
partitioned into fixed *shards*; an account's base hosts are its shard
(Observations 3-4).

Fleet-scalar state (pool membership, shard assignment, capacity and load
slots) lives in the columnar :class:`~repro.fleet.FleetStore`; the rich
:class:`~repro.hardware.host.PhysicalHost` objects keep only the non-scalar
hardware surfaces (CPU identity, TSC, RNG/memory-bus contention domains,
noise models).  Pool rotation and shard lookup are index operations, and
``serving_pool()``/``shard_hosts()`` return cached immutable tuples instead
of fresh list copies.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cloud.platform import PlatformProfile
from repro.cloud.topology import RegionProfile
from repro.errors import CloudError
from repro.fleet import FleetStore
from repro.hardware.host import HostFleetConfig, PhysicalHost, build_fleet
from repro.simtime.clock import SimClock


class DataCenter:
    """One region's worth of physical hosts plus placement structure.

    Parameters
    ----------
    profile:
        The region's calibration profile.
    clock:
        Shared simulated clock (drives serving-pool rotation).
    seed:
        Seed for fleet synthesis and rotation; fix it for reproducibility.
    platform:
        Optional :class:`~repro.cloud.platform.PlatformProfile`; its
        per-channel noise multipliers shape every host's contention
        domains.  ``None`` (and the neutral ``default`` profile) build a
        byte-identical fleet.
    """

    def __init__(
        self,
        profile: RegionProfile,
        clock: SimClock,
        seed: int = 0,
        platform: PlatformProfile | None = None,
    ) -> None:
        self.profile = profile
        self.clock = clock
        self.platform = platform
        self._rng = np.random.default_rng(seed)
        fleet_config = HostFleetConfig(
            n_hosts=profile.n_hosts,
            channel_noise=platform.channel_noise if platform is not None else (),
        )
        self.hosts: list[PhysicalHost] = build_fleet(
            fleet_config, clock.now(), self._rng, id_prefix=profile.name
        )
        self.hosts_by_id: dict[str, PhysicalHost] = {
            host.host_id: host for host in self.hosts
        }
        # The columnar store is authoritative for all per-host scalars from
        # here on; the synthesis values on PhysicalHost are only the seed.
        self.fleet = FleetStore(
            host_ids=[host.host_id for host in self.hosts],
            capacity_slots=[host.capacity_slots for host in self.hosts],
            problematic_timing=[host.problematic_timing for host in self.hosts],
        )
        self._pool_ids: tuple[str, ...] = ()
        self._pool_ids_version = -1
        self._shard_ids: dict[int, tuple[str, ...]] = {}

        pool_idx = self._rng.choice(
            profile.n_hosts, size=profile.active_hosts, replace=False
        )
        self.fleet.set_pool(pool_idx)
        # Shards are fixed at the initial pool membership: an account's base
        # hosts stay pinned even if they later rotate out of the pool.
        self.fleet.assign_shards(profile.shard_size, profile.n_shards)
        self._last_rotation = clock.now()

    # ------------------------------------------------------------------
    # Serving pool and rotation
    # ------------------------------------------------------------------
    def serving_pool(self) -> tuple[str, ...]:
        """Current serving-pool host ids (rotates over time).

        Returns a cached immutable tuple; between rotations repeated calls
        are O(1).
        """
        self._maybe_rotate()
        fleet = self.fleet
        if self._pool_ids_version != fleet.pool_version:
            self._pool_ids = fleet.ids_of(fleet.pool_order)
            self._pool_ids_version = fleet.pool_version
        return self._pool_ids

    def serving_pool_indices(self) -> np.ndarray:
        """Current serving-pool host indices in pool order (read-only)."""
        self._maybe_rotate()
        return self.fleet.pool_order

    def _maybe_rotate(self) -> None:
        now = self.clock.now()
        period = self.profile.rotation_period
        while now - self._last_rotation >= period:
            self._last_rotation += period
            self._rotate_once()

    def _rotate_once(self) -> None:
        pool_size = len(self.fleet.pool_order)
        rotated_size = len(self.fleet.rotated_order)
        swap = int(round(self.profile.rotation_fraction * pool_size))
        swap = min(swap, rotated_size)
        if swap <= 0:
            return
        # Draw positions into the *ordered* pool/rotated index arrays so
        # the swap is independent of PYTHONHASHSEED (set iteration would
        # follow string hashing and change the layout across interpreter
        # invocations).
        out_pos = self._rng.choice(pool_size, size=swap, replace=False)
        in_pos = self._rng.choice(rotated_size, size=swap, replace=False)
        self.fleet.rotate(out_pos, in_pos)

    # ------------------------------------------------------------------
    # Shards and base-host assignment
    # ------------------------------------------------------------------
    def shard_hosts(self, shard_index: int) -> tuple[str, ...]:
        """Host ids of one placement shard (cached immutable tuple).

        Shards are pinned at the initial pool assignment, so the cache
        never invalidates.
        """
        if not 0 <= shard_index < self.fleet.n_shards:
            raise CloudError(
                f"shard {shard_index} out of range (region has {self.fleet.n_shards})"
            )
        cached = self._shard_ids.get(shard_index)
        if cached is None:
            cached = self.fleet.ids_of(self.fleet.shard_members(shard_index))
            self._shard_ids[shard_index] = cached
        return cached

    def shard_for_account(self, account_id: str) -> int:
        """Map an account to its placement shard.

        Evaluation accounts are pinned by the region profile's placement
        plan; any other account hashes deterministically.
        """
        pinned = self.profile.plan.account_shards.get(account_id)
        if pinned is not None:
            return pinned % self.fleet.n_shards
        digest = hashlib.sha256(
            f"{self.profile.name}:{account_id}".encode()
        ).digest()
        return int.from_bytes(digest[:4], "big") % self.fleet.n_shards

    def dynamism_for_account(self, account_id: str) -> float:
        """Per-account probability of scattering off base hosts."""
        if not self.profile.dynamic_placement:
            return 0.0
        return self.profile.plan.account_dynamism.get(
            account_id, self.profile.default_dynamism
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def host(self, host_id: str) -> PhysicalHost:
        """Return a host by id (simulator-internal)."""
        try:
            return self.hosts_by_id[host_id]
        except KeyError:
            raise CloudError(f"unknown host {host_id!r}") from None

    @property
    def rng(self) -> np.random.Generator:
        """The datacenter's randomness source (placement, rotation)."""
        return self._rng

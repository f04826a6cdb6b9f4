"""The columnar fleet store.

All per-host scalar state lives here as NumPy columns indexed by a dense
host index (0..n_hosts-1).  Host ids are resolved to indices once at the
boundary; everything inside the cloud layers is index math.

Mutation rights (enforced by convention, documented in ``docs/API.md``):

* the :class:`~repro.cloud.datacenter.DataCenter` owns pool membership,
  pool ordering, and shard assignment (``set_pool``/``rotate``/
  ``assign_shards``);
* the :class:`~repro.cloud.orchestrator.Orchestrator` owns load slots
  (``add_load``/``release_load``/``release_load_at``);
* everyone else reads.

Nothing here is keyed by (host, service): where a service's instances run
is recorded once, in the :class:`~repro.fleet.InstanceStore` rows, and
placement derives its per-host counts from them.

Determinism contract: the store never iterates sets or dicts in a way that
depends on hash order — pool and rotation state are *ordered* index arrays,
so every RNG draw over them is PYTHONHASHSEED-independent.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.errors import CloudError

FloatColumn = NDArray[np.float64]
BoolColumn = NDArray[np.bool_]
IndexArray = NDArray[np.int64]


class FleetStore:
    """Columnar per-host scalar state with a stable id <-> index mapping.

    Parameters
    ----------
    host_ids:
        Host identifiers in fleet order; the position of an id *is* its
        index for the lifetime of the store.
    capacity_slots:
        Per-host capacity in Small-instance slots (scalar broadcasts).
    problematic_timing:
        Per-host noisy-timing flags (paper §4.2); defaults to all-False.
    """

    def __init__(
        self,
        host_ids: Sequence[str],
        capacity_slots: float | Sequence[float] = 160.0,
        problematic_timing: Sequence[bool] | None = None,
    ) -> None:
        self._ids: tuple[str, ...] = tuple(host_ids)
        n = len(self._ids)
        self._index: dict[str, int] = {h: i for i, h in enumerate(self._ids)}
        if len(self._index) != n:
            raise CloudError("duplicate host ids in fleet")
        self.capacity_slots: FloatColumn = np.broadcast_to(
            np.asarray(capacity_slots, dtype=np.float64), (n,)
        ).copy()
        self.load_slots: FloatColumn = np.zeros(n, dtype=np.float64)
        self.in_pool: BoolColumn = np.zeros(n, dtype=bool)
        self.shard_index: NDArray[np.int32] = np.full(n, -1, dtype=np.int32)
        self.problematic_timing: BoolColumn
        if problematic_timing is None:
            self.problematic_timing = np.zeros(n, dtype=bool)
        else:
            self.problematic_timing = np.asarray(problematic_timing, dtype=bool).copy()
            if self.problematic_timing.shape != (n,):
                raise CloudError("problematic_timing length does not match fleet")
        self._all_indices: IndexArray = np.arange(n, dtype=np.int64)
        self._ids_arr: NDArray[np.object_] = np.array(self._ids, dtype=object)
        self._pool_order: IndexArray = np.empty(0, dtype=np.int64)
        self._rotated_order: IndexArray = np.empty(0, dtype=np.int64)
        self._shard_orders: list[IndexArray] = []
        self._pool_version = 0

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def n_hosts(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> tuple[str, ...]:
        """All host ids in index order."""
        return self._ids

    @property
    def all_indices(self) -> IndexArray:
        """Every host index, ascending.  Treat as read-only."""
        return self._all_indices

    def index_of(self, host_id: str) -> int:
        """Dense index of a host id."""
        try:
            return self._index[host_id]
        except KeyError:
            raise CloudError(f"unknown host {host_id!r}") from None

    def host_id(self, index: int) -> str:
        """Host id at a dense index."""
        return self._ids[index]

    def indices_of(self, host_ids: Iterable[str]) -> IndexArray:
        """Resolve host ids to an index array, preserving order."""
        index = self._index
        try:
            return np.fromiter(
                (index[h] for h in host_ids), dtype=np.int64
            )
        except KeyError as exc:  # pragma: no cover - caller bug
            raise CloudError(f"unknown host {exc.args[0]!r}") from None

    def ids_of(self, indices: IndexArray) -> tuple[str, ...]:
        """Host ids for an index array, preserving order.

        One fancy-index gather over a cached object-dtype column instead
        of a Python loop — at 64x fleet scale a serving-pool resolve is a
        20k-element gather on every pool-version bump.
        """
        gathered: list[str] = self._ids_arr[
            np.asarray(indices, dtype=np.int64)
        ].tolist()
        return tuple(gathered)

    def mask_for_ids(self, host_ids: Iterable[str]) -> BoolColumn:
        """Boolean membership mask over the fleet for a set of host ids."""
        mask = np.zeros(self.n_hosts, dtype=bool)
        mask[self.indices_of(host_ids)] = True
        return mask

    def mask_for_indices(self, indices: IndexArray) -> BoolColumn:
        """Boolean membership mask over the fleet for an index array."""
        mask = np.zeros(self.n_hosts, dtype=bool)
        mask[indices] = True
        return mask

    # ------------------------------------------------------------------
    # Serving pool and rotation
    # ------------------------------------------------------------------
    @property
    def pool_order(self) -> IndexArray:
        """Serving-pool host indices in pool order.  Treat as read-only."""
        return self._pool_order

    @property
    def rotated_order(self) -> IndexArray:
        """Rotated-out host indices in rotation order.  Treat as read-only."""
        return self._rotated_order

    @property
    def pool_version(self) -> int:
        """Bumped on every pool-membership change (cache invalidation)."""
        return self._pool_version

    def set_pool(self, pool_indices: IndexArray) -> None:
        """Install the initial serving pool (in the given draw order).

        Hosts not in the pool become the rotated-out set in ascending index
        order — the same order as the pre-columnar list comprehension over
        fleet order.
        """
        pool = np.asarray(pool_indices, dtype=np.int64).copy()
        self.in_pool[:] = False
        self.in_pool[pool] = True
        self._pool_order = pool
        self._rotated_order = self._all_indices[~self.in_pool].copy()
        self._pool_version += 1

    def rotate(self, out_positions: IndexArray, in_positions: IndexArray) -> None:
        """Swap pool members at ``out_positions`` with rotated-out hosts at
        ``in_positions`` (positions into the respective *order* arrays).

        Order semantics match the historical list implementation exactly:
        survivors keep their relative order, swapped-in hosts append in
        draw order, and the displaced hosts append to the rotated-out set
        in draw order.
        """
        pool, rotated = self._pool_order, self._rotated_order
        out_ids = pool[out_positions]
        in_ids = rotated[in_positions]
        keep_pool = np.ones(len(pool), dtype=bool)
        keep_pool[out_positions] = False
        keep_rot = np.ones(len(rotated), dtype=bool)
        keep_rot[in_positions] = False
        self._pool_order = np.concatenate([pool[keep_pool], in_ids])
        self._rotated_order = np.concatenate([rotated[keep_rot], out_ids])
        self.in_pool[out_ids] = False
        self.in_pool[in_ids] = True
        self._pool_version += 1

    # ------------------------------------------------------------------
    # Shards
    # ------------------------------------------------------------------
    def assign_shards(self, shard_size: int, n_shards: int) -> None:
        """Pin shard membership to the current pool order.

        Shard *i* is the ``i``-th ``shard_size``-slice of the pool; the
        assignment is permanent (hosts keep their shard when they rotate
        out, reproducing Observations 3-4).  The assignment-time ordering
        inside each shard is preserved — it determines the order RNG
        tiebreaks are drawn in during placement.
        """
        self.shard_index[:] = -1
        self._shard_orders = []
        for i in range(n_shards):
            members = self._pool_order[i * shard_size : (i + 1) * shard_size].copy()
            self.shard_index[members] = i
            self._shard_orders.append(members)

    @property
    def n_shards(self) -> int:
        return len(self._shard_orders)

    def shard_members(self, shard: int) -> IndexArray:
        """Indices of one shard's hosts, in pool-assignment order.

        Treat as read-only.
        """
        if not 0 <= shard < len(self._shard_orders):
            raise CloudError(
                f"shard {shard} out of range (fleet has {len(self._shard_orders)})"
            )
        return self._shard_orders[shard]

    # ------------------------------------------------------------------
    # Load slots
    # ------------------------------------------------------------------
    def add_load(self, index: int, slots: float) -> None:
        """Commit capacity slots on one host."""
        self.load_slots[index] += slots

    def release_load(self, index: int, slots: float) -> None:
        """Release capacity slots on one host, clamping at zero."""
        remaining = self.load_slots[index] - slots
        self.load_slots[index] = remaining if remaining > 0.0 else 0.0

    def release_load_at(self, indices: IndexArray, slots: FloatColumn) -> None:
        """One :meth:`release_load` per entry, in order.

        Releases are non-negative, so clamping once after the in-order
        subtractions gives what clamping after each one does.
        """
        np.subtract.at(self.load_slots, indices, slots)
        remaining = self.load_slots[indices]
        self.load_slots[indices] = np.where(remaining > 0.0, remaining, 0.0)

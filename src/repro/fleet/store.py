"""The columnar fleet store.

All per-host scalar state lives here as NumPy columns indexed by a dense
host index (0..n_hosts-1).  Host ids are resolved to indices once at the
boundary; everything inside the cloud layers is index math.

Mutation rights (enforced by convention, documented in ``docs/API.md``):

* the :class:`~repro.cloud.datacenter.DataCenter` owns pool membership,
  pool ordering, and shard assignment (``set_pool``/``rotate``/
  ``assign_shards``);
* the :class:`~repro.cloud.orchestrator.Orchestrator` owns load slots and
  per-service instance counts (through :class:`~repro.fleet.view.HostHandle`
  or the ``add_load``/``release_load``/``service_counts`` methods);
* everyone else reads, preferably through
  :class:`~repro.fleet.view.FleetView`.

Determinism contract: the store never iterates sets or dicts in a way that
depends on hash order — pool and rotation state are *ordered* index arrays,
so every RNG draw over them is PYTHONHASHSEED-independent.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import overload

import numpy as np
from numpy.typing import NDArray

from repro.errors import CloudError

FloatColumn = NDArray[np.float64]
BoolColumn = NDArray[np.bool_]
IndexArray = NDArray[np.int64]
IntColumn = NDArray[np.int64]


class SparseServiceCounts:
    """Per-host instance counts for one service, stored sparsely.

    A service only ever runs on the hosts placement gave it — a base
    shard plus recruited helpers, a few hundred hosts at most — while the
    fleet can hold 100k+.  Dense per-service columns therefore cost
    O(hosts x services) resident memory once a background-traffic engine
    deploys thousands of tenants; this structure keeps a *sorted* host
    index array plus a parallel count array, so the store stays O(hosts)
    plus O(touched hosts) per service (the scaling contract in
    ``docs/DESIGN.md``).

    Semantics are exactly a dense int64 column of zeros with the stored
    entries overlaid: reads of untouched hosts return 0, and the batched
    gather (``counts[index_array]``) is pinned equal to dense fancy
    indexing by the twin-world and Hypothesis equivalence suites.  Counts
    are pure bookkeeping — they never feed an RNG draw — so the
    representation swap cannot perturb the byte-identity contract.

    Entries whose count returns to zero are kept (a terminated service's
    footprint is bounded by its lifetime placement, never by fleet size).
    """

    __slots__ = ("n_hosts", "_idx", "_cnt")

    def __init__(
        self,
        n_hosts: int,
        indices: IndexArray | None = None,
        counts: IntColumn | None = None,
    ) -> None:
        self.n_hosts = n_hosts
        if indices is None or counts is None:
            self._idx: IndexArray = np.empty(0, dtype=np.int64)
            self._cnt: IntColumn = np.empty(0, dtype=np.int64)
        else:
            self._idx = np.asarray(indices, dtype=np.int64)
            self._cnt = np.asarray(counts, dtype=np.int64)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def touched(self) -> int:
        """Number of stored (ever-placed-on) host entries."""
        return int(self._idx.size)

    def get(self, index: int) -> int:
        """Count on one host (0 when the host was never touched)."""
        pos = int(np.searchsorted(self._idx, index))
        if pos < self._idx.size and self._idx[pos] == index:
            return int(self._cnt[pos])
        return 0

    def gather(self, indices: IndexArray) -> IntColumn:
        """Counts for an index array — equals dense ``column[indices]``."""
        wanted = np.asarray(indices, dtype=np.int64)
        if self._idx.size == 0:
            return np.zeros(wanted.size, dtype=np.int64)
        # Clamp out-of-range positions to the last entry: a wanted index
        # greater than every stored one can't equal _idx[-1] (searchsorted
        # would have returned its exact position otherwise), so the
        # equality test still reads False for misses.
        pos = self._idx.searchsorted(wanted)
        np.minimum(pos, self._idx.size - 1, out=pos)
        out: IntColumn = np.where(self._idx[pos] == wanted, self._cnt[pos], 0)
        return out

    @overload
    def __getitem__(self, key: int) -> int: ...

    @overload
    def __getitem__(self, key: IndexArray) -> IntColumn: ...

    def __getitem__(self, key: int | IndexArray) -> int | IntColumn:
        if isinstance(key, (int, np.integer)):
            return self.get(int(key))
        return self.gather(key)

    def total(self) -> int:
        """Sum of all counts."""
        return int(self._cnt.sum())

    def sum(self) -> int:
        """Alias of :meth:`total`, mirroring ``ndarray.sum()``."""
        return self.total()

    def to_dense(self) -> IntColumn:
        """Materialize the equivalent dense column (tests/diagnostics)."""
        dense: IntColumn = np.zeros(self.n_hosts, dtype=np.int64)
        dense[self._idx] = self._cnt
        return dense

    def tolist(self) -> list[int]:
        """Dense list form, mirroring ``ndarray.tolist()`` (tests)."""
        return [int(v) for v in self.to_dense()]

    def nonzero_items(self) -> list[tuple[int, int]]:
        """Sorted ``(host_index, count)`` pairs with count > 0."""
        live = self._cnt > 0
        return [
            (int(i), int(c)) for i, c in zip(self._idx[live], self._cnt[live])
        ]

    # ------------------------------------------------------------------
    # Mutation (orchestrator only)
    # ------------------------------------------------------------------
    def _ensure_entry(self, index: int) -> int:
        """Position of ``index`` in the entry arrays, inserting a zero."""
        pos = int(np.searchsorted(self._idx, index))
        if pos == self._idx.size or self._idx[pos] != index:
            self._idx = np.insert(self._idx, pos, index)
            self._cnt = np.insert(self._cnt, pos, 0)
        return pos

    def __setitem__(self, key: int, value: int) -> None:
        # _ensure_entry may rebind _cnt; resolve the position first.
        pos = self._ensure_entry(int(key))
        self._cnt[pos] = value

    def inc(self, index: int, n: int = 1) -> None:
        """Count ``n`` more instances on one host."""
        pos = self._ensure_entry(int(index))
        self._cnt[pos] += n

    def dec(self, index: int) -> None:
        """Count one fewer instance on one host; never goes negative."""
        pos = int(np.searchsorted(self._idx, index))
        if pos < self._idx.size and self._idx[pos] == index and self._cnt[pos] > 0:
            self._cnt[pos] -= 1

    def sub_at(self, indices: IndexArray) -> None:
        """Batched decrement — one :meth:`dec` per entry.

        Decrements only go down, so flooring once at zero after all of
        them gives what flooring after each one does.
        """
        if self._idx.size == 0:
            return
        pos = self._idx.searchsorted(indices)
        pos = pos[self._idx.take(pos, mode="clip") == indices]
        np.subtract.at(self._cnt, pos, 1)
        self._cnt[pos] = np.maximum(self._cnt[pos], 0)

    def set_dense(self, values: IntColumn) -> None:
        """Replace all entries from a dense length-``n_hosts`` column.

        Test scaffolding for seeding uneven starting counts; only nonzero
        hosts get entries.
        """
        dense = np.asarray(values, dtype=np.int64)
        self._idx = np.flatnonzero(dense).astype(np.int64)
        self._cnt = dense[self._idx]

    def add_at(self, indices: IndexArray) -> None:
        """Batched increment — equals dense ``np.add.at(column, indices, 1)``.

        One sort + merge per launch batch instead of a Python-level
        searchsorted per instance; the orchestrator's batched launch path
        uses this to commit a whole placement decision at once.
        """
        placed = np.asarray(indices, dtype=np.int64)
        if placed.size == 0:
            return
        if self._idx.size:
            # Steady-state fast path: every placed host already has an
            # entry (true for all but a service's first launch onto a
            # host), so the whole batch is one searchsorted + add.at with
            # no unique/merge work.
            pos = self._idx.searchsorted(placed)
            clamped = np.minimum(pos, self._idx.size - 1)
            if bool((self._idx[clamped] == placed).all()):
                np.add.at(self._cnt, pos, 1)
                return
        unique, add = np.unique(placed, return_counts=True)
        pos = np.searchsorted(self._idx, unique)
        in_range = pos < self._idx.size
        hit = np.zeros(unique.size, dtype=bool)
        hit[in_range] = self._idx[pos[in_range]] == unique[in_range]
        self._cnt[pos[hit]] += add[hit]
        fresh = ~hit
        if fresh.any():
            ins = np.searchsorted(self._idx, unique[fresh])
            self._idx = np.insert(self._idx, ins, unique[fresh])
            self._cnt = np.insert(self._cnt, ins, add[fresh])

    # ------------------------------------------------------------------
    # Copy / restore
    # ------------------------------------------------------------------
    def copy(self) -> "SparseServiceCounts":
        """An isolated copy (snapshots)."""
        return SparseServiceCounts(
            self.n_hosts, self._idx.copy(), self._cnt.copy()
        )

    def restore_from(self, other: "SparseServiceCounts") -> None:
        """Overwrite this instance's entries in place from ``other``.

        In-place so references held by callers (placement requests, host
        handles) stay valid across a snapshot/restore round trip.
        """
        self.n_hosts = other.n_hosts
        self._idx = other._idx.copy()
        self._cnt = other._cnt.copy()


@dataclass(frozen=True)
class FleetSnapshot:
    """An immutable copy of every mutable fleet column.

    Produced by :meth:`FleetStore.snapshot` and consumed by
    :meth:`FleetStore.restore`; tests use the pair instead of deep-copying
    host dicts.
    """

    load_slots: FloatColumn
    capacity_slots: FloatColumn
    in_pool: BoolColumn
    shard_index: NDArray[np.int32]
    pool_order: IndexArray
    rotated_order: IndexArray
    pool_version: int
    service_counts: dict[str, SparseServiceCounts]


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
        self._service_counts: dict[str, SparseServiceCounts] = {}

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

    # ------------------------------------------------------------------
    # Per-service instance counts
    # ------------------------------------------------------------------
    def service_counts(self, service_key: str) -> SparseServiceCounts:
        """The sparse per-host instance counts for one service.

        Allocated lazily (empty, reads as all-zero) on first access; the
        orchestrator mutates it through
        :class:`~repro.fleet.view.HostHandle` or the batched
        :meth:`SparseServiceCounts.add_at`.  Sparse rather than a dense
        column so total store memory is O(hosts), not O(hosts x services)
        (the hyperscale scaling contract).
        """
        counts = self._service_counts.get(service_key)
        if counts is None:
            counts = SparseServiceCounts(self.n_hosts)
            self._service_counts[service_key] = counts
        return counts

    def peek_service_counts(self, service_key: str) -> SparseServiceCounts | None:
        """The counts if they exist, else ``None`` (no allocation)."""
        return self._service_counts.get(service_key)

    def service_counts_touched(self) -> int:
        """Total stored (service, host) entries across all services.

        Diagnostic for the memory-ceiling gate: grows with placement
        footprints, never with ``n_hosts * n_services``.
        """
        return sum(c.touched for c in self._service_counts.values())

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> FleetSnapshot:
        """Copy every mutable column into an immutable snapshot."""
        return FleetSnapshot(
            load_slots=self.load_slots.copy(),
            capacity_slots=self.capacity_slots.copy(),
            in_pool=self.in_pool.copy(),
            shard_index=self.shard_index.copy(),
            pool_order=self._pool_order.copy(),
            rotated_order=self._rotated_order.copy(),
            pool_version=self._pool_version,
            service_counts={
                key: counts.copy() for key, counts in self._service_counts.items()
            },
        )

    def restore(self, snap: FleetSnapshot) -> None:
        """Restore every mutable column from a snapshot.

        Service-count columns created after the snapshot are dropped;
        columns present in the snapshot are restored in place where
        possible so existing references stay valid.
        """
        self.load_slots[:] = snap.load_slots
        self.capacity_slots[:] = snap.capacity_slots
        self.in_pool[:] = snap.in_pool
        self.shard_index[:] = snap.shard_index
        self._pool_order = snap.pool_order.copy()
        self._rotated_order = snap.rotated_order.copy()
        self._pool_version = snap.pool_version
        for key in list(self._service_counts):
            if key not in snap.service_counts:
                del self._service_counts[key]
        for key, counts in snap.service_counts.items():
            existing = self._service_counts.get(key)
            if existing is None:
                self._service_counts[key] = counts.copy()
            else:
                existing.restore_from(counts)

"""Columnar instance table: one row per container instance ever launched.

The lifecycle mirrors the Cloud Run container contract (paper §2.2): an
instance is created to serve requests, stays *active* while it has open
connections, becomes *idle* when the last connection closes, and is sent
SIGTERM and destroyed if it stays idle too long.

:class:`InstanceStore` keeps that lifecycle as NumPy columns, so the
orchestrator idles out a whole disconnect or terminates a tick's worth of
reaps with a few masked updates.  Each service also has an append-only
array of its rows, so per-service lookups cost O(that service's rows),
never O(all rows).  The store also owns the service-key <-> dense-index
mapping and per-service ACTIVE/IDLE count columns, so the
background-traffic hot path reads a service's counts without touching its
rows.

A row exists as columns only.  :class:`ContainerInstance` is a stateless
view of ``(table, row)`` that code builds when it asks for one row, and
:class:`InstanceColumn` a sequence of them over a row array, built item by
item as it is read.  A row's instance id is derived from its service key
and its ``serial`` column (the orchestrator's instance counter at launch),
and its SIGTERM callback and, once the row is hot, its cached generator
live in per-row dicts of the table.  So the store holds no Python object
per row, and two views of one row see the same instance.

A row's sandbox is a view too (:class:`~repro.sandbox.base.Sandbox`),
built when code asks for it, and it draws through the row's one stream
(:class:`~repro.fleet.probe.RowStream`).  The row keeps the sandbox seed
and the clock at the launch commit, and two columns say how far its
stream and clock-read count moved since the boot draws.  So fingerprint
and CTest batches draw from many rows as array operations, and a row
keeps a cached generator only once it is hot (:mod:`repro.fleet.probe`).
"""

from __future__ import annotations

import enum
import operator
from collections import Counter
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Any, Callable, Generic, TypeVar, overload

import numpy as np
from numpy.typing import NDArray

from repro.errors import InstanceGoneError
from repro.sandbox.base import Sandbox, TscPolicy

if TYPE_CHECKING:
    from repro.fleet.probe import Hot, RowStream
    from repro.hardware.host import PhysicalHost
    from repro.hardware.rng_resource import ContentionResource
    from repro.simtime.clock import SimClock

T = TypeVar("T")
IndexArray = NDArray[np.int64]
FloatColumn = NDArray[np.float64]
IntColumn = NDArray[np.int64]

#: State codes of the ``state`` column.
ACTIVE, IDLE, TERMINATED = 0, 1, 2

#: Initial row capacity, per service and for the table; doubled on growth.
_MIN_CAPACITY = 64


class InstanceState(enum.Enum):
    """Lifecycle state of a container instance."""

    ACTIVE = "active"
    IDLE = "idle"
    TERMINATED = "terminated"


_STATE_OF_CODE = (InstanceState.ACTIVE, InstanceState.IDLE, InstanceState.TERMINATED)


def instance_id(key: str, serial: int) -> str:
    """The id of the instance a service ``key`` launched under counter
    value ``serial``."""
    return f"{key}#{serial:07d}"


class ContainerInstance:
    """A view of one row of an :class:`InstanceStore`.

    The view holds nothing but its table and row, so any number of views
    of one row see one instance: they compare and hash equal, and their
    sandboxes draw from one stream.

    Attributes
    ----------
    instance_id:
        Unique identifier (also the sandbox id on the host RNG), built
        from the row's service key and ``serial``.
    host_id:
        The physical host (simulator-side ground truth; never exposed to
        guests or to the attacker-facing API).
    alive:
        True until the instance has been terminated (the ``state``
        column).
    row:
        The instance's row in its store.

    Everything else is read from the row too: the ``service``, the
    ``sandbox_class`` (kept after termination), ``on_sigterm`` and the
    lifecycle ``state``.
    """

    __slots__ = ("_rows", "row")

    def __init__(self, rows: _Rows, row: int) -> None:
        self._rows = rows
        self.row = row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContainerInstance):
            return NotImplemented
        return self.row == other.row and self._rows is other._rows

    def __hash__(self) -> int:
        # The row alone: equal views hash equal, and the hash (so the
        # order of a set of views) does not depend on where a table lives.
        return hash(self.row)

    def __repr__(self) -> str:
        return (
            f"ContainerInstance(instance_id={self.instance_id!r}, "
            f"host_id={self.host_id!r}, state={self.state}, "
            f"hot={self.row in self._rows.hot})"
        )

    @property
    def instance_id(self) -> str:
        return self._rows.instance_id(self.row)

    @property
    def host_id(self) -> str:
        rows = self._rows
        return rows.hosts[rows.host[self.row]].host_id

    @property
    def alive(self) -> bool:
        return self._rows.alive(self.row)

    @property
    def service(self) -> Any:
        """The service this instance belongs to."""
        return self._rows.services[self._rows.service[self.row]]

    @property
    def sandbox_class(self) -> type[Sandbox]:
        """The class of the instance's sandbox generation."""
        return self._rows.classes[self._rows.service[self.row]]

    @property
    def on_sigterm(self) -> Callable[[float], None] | None:
        """Callback invoked (with the current wall time) when the
        orchestrator sends SIGTERM before termination; the
        idle-termination experiment (Fig. 6) registers a reporter here."""
        return self._rows.sigterm.get(self.row)

    @on_sigterm.setter
    def on_sigterm(self, callback: Callable[[float], None] | None) -> None:
        if callback is None:
            self._rows.sigterm.pop(self.row, None)
        else:
            self._rows.sigterm[self.row] = callback

    @property
    def state(self) -> InstanceState:
        return _STATE_OF_CODE[self._rows.state[self.row]]

    @property
    def sandbox(self) -> Sandbox:
        """A view of the instance's sandboxed execution environment.

        Building it draws nothing: the view reads the row and draws
        through the row's stream.

        Raises
        ------
        InstanceGoneError
            If the instance has been terminated.
        """
        self.require_alive()
        rows = self._rows
        return rows.classes[rows.service[self.row]](rows, self.row)

    def kernel_tsc_khz(self) -> float:
        """What :meth:`Sandbox.kernel_tsc_khz` would read in this instance,
        answered from its host.

        Raises
        ------
        InstanceGoneError
            If the instance has been terminated.
        PrivilegeError
            If its sandbox generation cannot reach a kernel (Gen 1).
        """
        self.require_alive()
        rows = self._rows
        host = rows.hosts[rows.host[self.row]]
        return self.sandbox_class.host_kernel_tsc_khz(host, rows.tsc_policy)

    def channel_resource(self, kind: str) -> ContentionResource:
        """The instance's host's contention domain of one covert-channel
        kind: what its sandbox pressures."""
        rows = self._rows
        return rows.hosts[rows.host[self.row]].channel_resource(kind)

    def require_alive(self) -> None:
        """Raise :class:`InstanceGoneError` if the instance is terminated."""
        if not self._rows.alive(self.row):
            raise InstanceGoneError(f"instance {self.instance_id!r} was terminated")

    def run_probe(self, probe: Callable[[Sandbox], T]) -> T:
        """Execute ``probe(sandbox)`` inside this instance if it is alive.

        The execution gate behind :meth:`repro.cloud.api.InstanceHandle.run`:
        a terminated instance raises :class:`InstanceGoneError`.
        """
        return probe(self.sandbox)


class RowColumn(Sequence[T], Generic[T]):
    """Rows of one table as a sequence whose items are built when read.

    Indexing or iterating builds an item per row read
    (:meth:`_item`); slicing gives another column.  A column compares
    equal to any list, tuple or column of equal items, and ``+`` with
    one gives a list.
    """

    __slots__ = ("_table", "_row_array")

    def __init__(self, table: _Rows, rows: IndexArray) -> None:
        self._table = table
        self._row_array = rows

    def _item(self, row: int) -> T:
        raise NotImplementedError

    def __len__(self) -> int:
        return int(self._row_array.size)

    @overload
    def __getitem__(self, index: int) -> T: ...

    @overload
    def __getitem__(self, index: slice) -> RowColumn[T]: ...

    def __getitem__(self, index: int | slice) -> T | RowColumn[T]:
        if isinstance(index, slice):
            return type(self)(self._table, self._row_array[index])
        return self._item(int(self._row_array[index]))

    def __iter__(self) -> Iterator[T]:
        return map(self._item, self._row_array.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RowColumn, list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable-sequence equality

    def __add__(self, other: Sequence[T]) -> list[T]:
        return [*self, *other]

    def __radd__(self, other: Sequence[T]) -> list[T]:
        return [*other, *self]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} rows>"


class InstanceColumn(RowColumn[ContainerInstance]):
    """Rows of one table as :class:`ContainerInstance` views."""

    __slots__ = ()

    def _item(self, row: int) -> ContainerInstance:
        return ContainerInstance(self._table, row)


class _Columns:
    """The instance columns, declared once for type checkers."""

    state: NDArray[np.int8]
    host: IndexArray
    service: IndexArray
    created_at: FloatColumn
    last_active_at: FloatColumn
    active_since: FloatColumn
    active_total: FloatColumn
    billed: FloatColumn
    seed: IndexArray
    serial: IndexArray
    boot_time: FloatColumn
    reap_seq: IndexArray
    probe_words: NDArray[np.int32]
    clock_reads: NDArray[np.int16]


class _Rows(_Columns):
    """The columns, per-service tables, the per-row dicts, and the world
    a sandbox runs in: everything a :class:`ContainerInstance` or
    sandbox view reads.
    """

    #: ``(name, dtype, fill)``: rows past ``n_rows`` hold ``fill``, the
    #: value every launched row starts with (``None``: set at launch).
    COLUMNS: tuple[tuple[str, Any, Any], ...] = (
        ("state", np.int8, ACTIVE),
        ("host", np.int64, None),
        ("service", np.int64, None),
        ("created_at", np.float64, None),
        ("last_active_at", np.float64, None),
        ("active_since", np.float64, None),
        ("active_total", np.float64, 0.0),
        ("billed", np.float64, 0.0),
        ("seed", np.int64, None),
        ("serial", np.int64, None),
        ("boot_time", np.float64, None),
        ("reap_seq", np.int64, -1),
        ("probe_words", np.int32, 0),
        ("clock_reads", np.int16, 0),
    )

    def __init__(
        self, clock: SimClock, hosts: Sequence[PhysicalHost], tsc_policy: TscPolicy
    ) -> None:
        self.clock = clock
        self.hosts = hosts
        self.tsc_policy = tsc_policy
        #: Per service index: the key, the service, and its sandbox class
        #: once it has launched.
        self.keys: list[str] = []
        self.services: list[Any] = []
        self.classes: dict[int, type[Sandbox]] = {}
        #: Row -> SIGTERM callback, for the rows that registered one.
        self.sigterm: dict[int, Callable[[float], None]] = {}
        #: Row -> cache of the alive hot rows (:mod:`repro.fleet.probe`).
        self.hot: dict[int, Hot] = {}
        self.n_rows = 0
        for name, dtype, fill in self.COLUMNS:
            setattr(self, name, _column(dtype, fill, _MIN_CAPACITY))

    def reserve(self, n_rows: int) -> None:
        """Grow every column to hold ``n_rows``, keeping the used rows."""
        capacity = self.state.shape[0]
        if n_rows <= capacity:
            return
        capacity = max(n_rows, 2 * capacity)
        for name, dtype, fill in self.COLUMNS:
            grown = _column(dtype, fill, capacity)
            grown[: self.n_rows] = getattr(self, name)[: self.n_rows]
            setattr(self, name, grown)

    def alive(self, row: int) -> bool:
        """Whether the instance at ``row`` is not terminated."""
        state: int = self.state.item(row)
        return state != TERMINATED

    def instance_id(self, row: int) -> str:
        """The id of the instance at ``row``."""
        return instance_id(self.keys[self.service[row]], int(self.serial[row]))

    def stream(self, row: int) -> RowStream:
        """The stream every draw from ``row`` goes through."""
        from repro.fleet.probe import RowStream  # deferred: probe imports this module

        return RowStream(self, row)

    def __getstate__(self) -> dict[str, Any]:
        # Snapshots carry the used rows only, not the spare capacity.
        state = self.__dict__.copy()
        for name, _dtype, _fill in self.COLUMNS:
            state[name] = state[name][: self.n_rows].copy()
        return state


def _column(dtype: Any, fill: Any, size: int) -> NDArray[Any]:
    column = np.empty(size, dtype=dtype)
    if fill is not None:
        column.fill(fill)
    return column


_COLUMN_NAMES = frozenset(name for name, _dtype, _fill in _Rows.COLUMNS)


class InstanceStore(_Columns):
    """One row per instance, as NumPy columns.

    Columns (index = row, in launch order): ``state`` (:data:`ACTIVE`,
    :data:`IDLE` or :data:`TERMINATED`), ``host`` (index into ``hosts``),
    ``service`` (dense service index), ``created_at``, ``last_active_at``,
    ``active_since`` (NaN while not active), ``active_total`` (seconds of
    closed active periods), ``billed`` (active seconds already charged),
    ``seed`` (the sandbox seed), ``serial`` (the instance counter value
    the row's id is built from; rising with rows, except where retry
    backoff delayed a commit), ``boot_time`` (the clock at the launch
    commit), ``reap_seq`` (sequence number of the row's pending idle
    reap, -1 when none; its owner is the orchestrator's reaper),
    ``probe_words`` (int32: raw words the row's stream drew after its boot
    draws) and ``clock_reads`` (int16: the clock reads its sandbox made);
    their owner is :mod:`repro.fleet.probe`.

    Per service (index = dense service index, in registration order) the
    store keeps the key and ACTIVE/IDLE instance counts; transitions update
    the counts with the rows.  Counts are pure bookkeeping and never feed
    an RNG draw.  Transitions take row arrays and apply in row order, the
    order the per-instance loops they replace walked.

    Parameters
    ----------
    clock:
        The clock sandboxes read.
    hosts:
        Physical hosts; a row's ``host`` column indexes this sequence.
    tsc_policy:
        TSC exposure of every sandbox of the store.
    """

    def __init__(
        self,
        clock: SimClock,
        hosts: Sequence[PhysicalHost],
        tsc_policy: TscPolicy = TscPolicy.NATIVE,
    ) -> None:
        self._index: dict[str, int] = {}
        self._active: IntColumn = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self._idle: IntColumn = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self._rows = _Rows(clock, hosts, tsc_policy)
        self._bind_columns()
        self._rows_of: list[IndexArray] = []
        self._n_of: list[int] = []

    def __getstate__(self) -> dict[str, Any]:
        # Columns pickle with their table (trimmed to the used rows) and
        # are re-bound on load; per-service arrays drop their spare room.
        state = {
            key: value
            for key, value in self.__dict__.items()
            if key not in _COLUMN_NAMES
        }
        state["_rows_of"] = [
            rows[:n].copy() for rows, n in zip(self._rows_of, self._n_of)
        ]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._bind_columns()

    @property
    def n_rows(self) -> int:
        """Rows launched so far."""
        return self._rows.n_rows

    # ------------------------------------------------------------------
    # Services and rows
    # ------------------------------------------------------------------
    def service_index(self, key: str, service: Any = None) -> int:
        """Dense index of a service key, registering it on first use."""
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = len(self._rows.keys)
            self._rows.keys.append(key)
            self._rows.services.append(service)
            self._rows_of.append(np.empty(_MIN_CAPACITY, dtype=np.int64))
            self._n_of.append(0)
            if index == self._active.shape[0]:
                zeros = np.zeros(index, dtype=np.int64)
                self._active = np.concatenate([self._active, zeros])
                self._idle = np.concatenate([self._idle, zeros])
        return index

    def index_of(self, key: str) -> int:
        """Dense index of a registered service key.

        Raises
        ------
        KeyError
            If the service was never registered.
        """
        return self._index[key]

    def key_of(self, index: int) -> str:
        """Service key at a dense index."""
        return self._rows.keys[index]

    def rows_of(self, index: int) -> IndexArray:
        """Every row of one service, in launch order (a view)."""
        return self._rows_of[index][: self._n_of[index]]

    def active_rows(self, index: int) -> IndexArray:
        """The service's ACTIVE rows, in launch order."""
        rows = self.rows_of(index)
        active: IndexArray = rows[self.state[rows] == ACTIVE]
        return active

    def idle_rows(self, index: int) -> IndexArray:
        """The service's IDLE rows, in launch order."""
        rows = self.rows_of(index)
        idle: IndexArray = rows[self.state[rows] == IDLE]
        return idle

    def alive_rows(self, index: int) -> IndexArray:
        """The service's non-terminated rows, in launch order."""
        rows = self.rows_of(index)
        alive: IndexArray = rows[self.state[rows] != TERMINATED]
        return alive

    def instance(self, row: int) -> ContainerInstance:
        """A view of one row."""
        return ContainerInstance(self._rows, row)

    def column(self, rows: IndexArray) -> InstanceColumn:
        """Views of ``rows``, in the same order, built as they are read."""
        return InstanceColumn(self._rows, rows)

    def instance_ids(self, rows: IndexArray) -> list[str]:
        """The ids of ``rows``, in the same order."""
        table = self._rows
        keys = table.keys
        return [
            instance_id(keys[index], serial)
            for index, serial in zip(
                table.service[rows].tolist(), table.serial[rows].tolist()
            )
        ]

    def row_of(self, instance_id: str) -> int:
        """The row of the instance with this id.

        The id's ``#`` suffix is its serial, and serials rise with rows,
        so one binary search finds the row; a row whose commit retry
        backoff delayed past later launches is found by a scan.

        Raises
        ------
        KeyError
            If no row has this id: an unknown service or serial, or a
            serial whose launch failed.
        """
        key, _hash, suffix = instance_id.rpartition("#")
        if key not in self._index or not suffix.isdecimal():
            raise KeyError(instance_id)
        serial = int(suffix)
        serials = self.serial[: self.n_rows]
        row = int(serials.searchsorted(serial))
        if row == serials.size or serials[row] != serial:
            found = np.flatnonzero(serials == serial)
            if not found.size:
                raise KeyError(instance_id)
            row = int(found[0])
        if self._rows.instance_id(row) != instance_id:  # another service's serial
            raise KeyError(instance_id)
        return row

    # ------------------------------------------------------------------
    # Per-service counts
    # ------------------------------------------------------------------
    def active_count(self, index: int) -> int:
        """ACTIVE instances of the service at ``index``."""
        return int(self._active[index])

    def idle_count(self, index: int) -> int:
        """IDLE (alive, disconnected) instances of the service."""
        return int(self._idle[index])

    def alive_count(self, index: int) -> int:
        """All non-terminated instances of the service."""
        return int(self._active[index] + self._idle[index])

    def active_for(self, indices: IndexArray) -> IntColumn:
        """Batched ACTIVE counts for an index array (one fancy-index op)."""
        active: IntColumn = self._active[indices]
        return active

    def totals(self) -> tuple[int, int]:
        """``(active, idle)`` instance totals across every service."""
        n = len(self._rows.keys)
        return int(self._active[:n].sum()), int(self._idle[:n].sum())

    def host_counts(self, index: int, hosts: IndexArray) -> IntColumn:
        """Alive instances of service ``index`` on each of ``hosts``, in the
        order of ``hosts``.

        One sort of the service's alive hosts and two binary searches:
        O(alive rows of the service + len(hosts)), never O(fleet).
        """
        placed = np.sort(self.host[self.alive_rows(index)])
        counts = placed.searchsorted(hosts, "right") - placed.searchsorted(hosts, "left")
        return counts.astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def launch(
        self,
        index: int,
        host_indices: IndexArray,
        serials: Sequence[int],
        seeds: NDArray[np.int64],
        created_at: float,
        boot_time: float,
        sandbox_class: type[Sandbox],
    ) -> IndexArray:
        """Append one ACTIVE row per serial for service ``index``; returns
        the new rows.

        A row's id is ``instance_id(key, serial)``.  ``seeds`` and
        ``boot_time`` are each row's stream seed and sandbox boot time.
        """
        count = len(serials)
        table = self._rows
        start, stop = table.n_rows, table.n_rows + count
        self._reserve(stop)
        new = slice(start, stop)  # state, totals and reap_seq start filled
        self.host[new] = host_indices
        self.service[new] = index
        self.created_at[new] = created_at
        self.last_active_at[new] = created_at
        self.active_since[new] = created_at
        self.seed[new] = seeds
        self.serial[new] = serials
        self.boot_time[new] = boot_time
        self._append_rows(index, start, stop)
        table.classes[index] = sandbox_class
        table.n_rows = stop
        self._active[index] += count
        return np.arange(start, stop)

    def idle(self, index: int, rows: IndexArray, now: float) -> None:
        """ACTIVE -> IDLE for ``rows`` of service ``index``, closing each
        row's active period."""
        self.active_total[rows] += now - self.active_since[rows]
        self.active_since[rows] = np.nan
        self.state[rows] = IDLE
        self.last_active_at[rows] = now
        self._active[index] -= rows.size
        self._idle[index] += rows.size

    def activate(self, index: int, rows: IndexArray, now: float) -> None:
        """IDLE -> ACTIVE for ``rows`` of service ``index`` (reuse)."""
        self.active_since[rows] = now
        self.state[rows] = ACTIVE
        self._idle[index] -= rows.size
        self._active[index] += rows.size

    def terminate(
        self, rows: IndexArray, now: float
    ) -> tuple[IndexArray, InstanceColumn]:
        """Terminate the alive ones of ``rows``, in order, dropping their
        caches.

        Active rows close their active period first; each row's
        ``on_sigterm`` callback runs with ``now``.  Returns the rows
        terminated and the instances among them that were hot: only those
        can hold hardware pressure.
        """
        state = self.state[rows]
        alive = state != TERMINATED
        if np.count_nonzero(alive) < rows.size:
            rows, state = rows[alive], state[alive]
        was_active = state == ACTIVE
        if np.count_nonzero(was_active):
            active = rows[was_active]
            self.active_total[active] += now - self.active_since[active]
            self.active_since[active] = np.nan
        transitions = Counter(zip(self.service[rows].tolist(), was_active.tolist()))
        for (index, flag), count in transitions.items():
            (self._active if flag else self._idle)[index] -= count
        self.state[rows] = TERMINATED
        was_hot: list[int] = []
        sigterm, hot = self._rows.sigterm, self._rows.hot
        if sigterm or hot:
            listed = rows[np.isin(rows, [*sigterm, *hot])]
            for row in listed.tolist():
                callback = sigterm.pop(row, None)
                if callback is not None:
                    callback(now)
                if hot.pop(row, None) is not None:
                    was_hot.append(row)
        return rows, self.column(np.array(was_hot, dtype=np.int64))

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _reserve(self, n_rows: int) -> None:
        if n_rows > self.state.shape[0]:
            self._rows.reserve(n_rows)
            self._bind_columns()

    def _bind_columns(self) -> None:
        for name, _dtype, _fill in _Rows.COLUMNS:
            setattr(self, name, getattr(self._rows, name))

    def _append_rows(self, index: int, start: int, stop: int) -> None:
        rows, n = self._rows_of[index], self._n_of[index]
        end = n + stop - start
        if end > rows.shape[0]:
            grown = np.empty(max(end, 2 * rows.shape[0]), dtype=np.int64)
            grown[:n] = rows[:n]
            self._rows_of[index] = rows = grown
        rows[n:end] = np.arange(start, stop)
        self._n_of[index] = end

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
rows.  :class:`ContainerInstance` is the per-row handle the client API
holds.

A row boots its sandbox on first use and frees it at termination.  Most
instances of a launch-heavy campaign are probed at most once and then idle
out, so they never need one.  The row keeps the sandbox seed and the clock
at the launch commit, which is everything an eager boot would have read
from the world then, so a late sandbox is the one an eager boot would
have built.  A fingerprint batch probes unbooted rows without a sandbox
(:mod:`repro.fleet.probe`) and records in two columns how far each
row's stream and clock-read count moved; a later boot fast-forwards its
fresh sandbox by exactly that much.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, Callable, TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.errors import InstanceGoneError
from repro.sandbox.base import Sandbox, TscPolicy

if TYPE_CHECKING:
    from repro.hardware.host import PhysicalHost
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


class ContainerInstance:
    """Handle on one row of an :class:`InstanceStore`.

    Attributes
    ----------
    instance_id:
        Unique identifier (also the sandbox id on the host RNG).
    host_id:
        The physical host (simulator-side ground truth; never exposed to
        guests or to the attacker-facing API).
    alive:
        True until the instance has been terminated.  A plain slot, not a
        column read: the probe path checks it on every call.
    row:
        The instance's row in its store.

    Everything else is read from the row: the ``service``, the
    ``sandbox_class`` (known without booting a sandbox and kept after
    termination), ``on_sigterm`` and the lifecycle ``state``.
    """

    __slots__ = ("instance_id", "host_id", "alive", "row", "_rows", "_sandbox")

    def __init__(self, rows: _Rows, row: int, instance_id: str, host_id: str) -> None:
        self.instance_id = instance_id
        self.host_id = host_id
        self.alive = True
        self.row = row
        self._rows = rows
        self._sandbox: Sandbox | None = None

    def __getstate__(self) -> tuple[Any, ...]:
        # A tuple, not the default slot dict: world snapshots pickle
        # every handle ever launched.
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple[Any, ...]) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    def __repr__(self) -> str:
        return (
            f"ContainerInstance(instance_id={self.instance_id!r}, "
            f"host_id={self.host_id!r}, state={self.state}, "
            f"booted={self._sandbox is not None})"
        )

    @property
    def service(self) -> Any:
        """The service this instance belongs to."""
        return self._rows.services[self._rows.service[self.row]]

    @property
    def sandbox_class(self) -> type[Sandbox]:
        """The class of the sandbox generation the instance boots."""
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
        """The sandboxed execution environment, booted on first access.

        The sandbox boots from ``np.random.default_rng(seed)``'s stream, drawing
        its offset as an eager boot would, then skips the words and
        counts the clock reads that columnar probes of the row
        (:mod:`repro.fleet.probe`) already took.

        Raises
        ------
        InstanceGoneError
            If the instance has been terminated (its sandbox is freed).
        """
        sandbox = self._sandbox
        if sandbox is None:
            self.require_alive()
            rows, row = self._rows, self.row
            bit_generator = np.random.PCG64(int(rows.seed[row]))  # as default_rng(seed)
            sandbox = rows.classes[rows.service[row]](
                rows.hosts[rows.host[row]],
                rows.clock,
                np.random.Generator(bit_generator),
                self.instance_id,
                rows.tsc_policy,
                boot_wall_time=float(rows.boot_time[row]),
            )
            words = int(rows.probe_words[row])
            if words:
                bit_generator.advance(words)
            sandbox.syscalls.call_count = int(rows.clock_reads[row])
            self._sandbox = sandbox
        return sandbox

    def kernel_tsc_khz(self) -> float:
        """What :meth:`Sandbox.kernel_tsc_khz` would read in this instance,
        answered from its host without booting the sandbox.

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

    def require_alive(self) -> None:
        """Raise :class:`InstanceGoneError` if the instance is terminated."""
        if not self.alive:
            raise InstanceGoneError(f"instance {self.instance_id!r} was terminated")

    def run_probe(self, probe: Callable[[Sandbox], T]) -> T:
        """Execute ``probe(sandbox)`` inside this instance if it is alive.

        The execution gate behind :meth:`repro.cloud.api.InstanceHandle.run`:
        a terminated instance raises :class:`InstanceGoneError`.
        """
        self.require_alive()
        return probe(self.sandbox)


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
    boot_time: FloatColumn
    reap_seq: IndexArray
    probe_words: NDArray[np.int16]
    clock_reads: NDArray[np.int8]


class _Rows(_Columns):
    """The columns, per-service tables, and what a sandbox boots against.

    Handles point here rather than at their store: the store lists its
    handles, so a handle -> store link would make every world a reference
    cycle that outlives its last user until the cycle collector runs.
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
        ("boot_time", np.float64, None),
        ("reap_seq", np.int64, -1),
        ("probe_words", np.int16, 0),
        ("clock_reads", np.int8, 0),
    )

    def __init__(
        self, clock: SimClock, hosts: Sequence[PhysicalHost], tsc_policy: TscPolicy
    ) -> None:
        self.clock = clock
        self.hosts = hosts
        self.tsc_policy = tsc_policy
        #: Per service index: the service, and its sandbox class once
        #: it has launched.
        self.services: list[Any] = []
        self.classes: dict[int, type[Sandbox]] = {}
        #: Row -> SIGTERM callback, for the rows that registered one.
        self.sigterm: dict[int, Callable[[float], None]] = {}
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
    """One row per instance, as NumPy columns, plus a handle per row.

    Columns (index = row, in launch order): ``state`` (:data:`ACTIVE`,
    :data:`IDLE` or :data:`TERMINATED`), ``host`` (index into ``hosts``),
    ``service`` (dense service index), ``created_at``, ``last_active_at``,
    ``active_since`` (NaN while not active), ``active_total`` (seconds of
    closed active periods), ``billed`` (active seconds already charged),
    ``seed`` (the sandbox seed), ``boot_time`` (the clock at the launch
    commit), ``reap_seq`` (sequence number of the row's pending idle
    reap, -1 when none; its owner is the orchestrator's reaper), and, for
    rows probed before their sandbox booted, ``probe_words`` (raw words
    the probes drew after the boot draws) and ``clock_reads`` (the clock
    reads they made); their owner is :mod:`repro.fleet.probe`.

    Per service (index = dense service index, in registration order) the
    store keeps the key and ACTIVE/IDLE instance counts; transitions update
    the counts with the rows.  Counts are pure bookkeeping and never feed
    an RNG draw.  Transitions take row arrays and apply in row order, the
    order the per-instance loops they replace walked.

    Parameters
    ----------
    clock:
        The clock sandboxes boot against.
    hosts:
        Physical hosts; a row's ``host`` column indexes this sequence.
    tsc_policy:
        TSC exposure of every sandbox the store boots.
    """

    def __init__(
        self,
        clock: SimClock,
        hosts: Sequence[PhysicalHost],
        tsc_policy: TscPolicy = TscPolicy.NATIVE,
    ) -> None:
        self._index: dict[str, int] = {}
        self._keys: list[str] = []
        self._active: IntColumn = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self._idle: IntColumn = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self.handles: list[ContainerInstance] = []
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
            index = self._index[key] = len(self._keys)
            self._keys.append(key)
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
        return self._keys[index]

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

    def handles_of(self, rows: IndexArray) -> list[ContainerInstance]:
        """The handles of ``rows``, in the same order."""
        handles = self.handles
        return [handles[row] for row in rows.tolist()]

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
        n = len(self._keys)
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
        instance_ids: Sequence[str],
        seeds: NDArray[np.int64],
        created_at: float,
        boot_time: float,
        sandbox_class: type[Sandbox],
    ) -> list[ContainerInstance]:
        """Append one ACTIVE row per id for service ``index``.

        ``seeds`` and ``boot_time`` are what each row's sandbox boots from.
        """
        count = len(instance_ids)
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
        self.boot_time[new] = boot_time
        self._append_rows(index, start, stop)
        table.classes[index] = sandbox_class
        hosts = table.hosts
        handles = [
            ContainerInstance(table, row, instance_id, hosts[host].host_id)
            for row, instance_id, host in zip(
                range(start, stop), instance_ids, np.asarray(host_indices).tolist()
            )
        ]
        self.handles.extend(handles)
        table.n_rows = stop
        self._active[index] += count
        return handles

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
    ) -> tuple[IndexArray, list[ContainerInstance]]:
        """Terminate the alive ones of ``rows``, in order, freeing sandboxes.

        Active rows close their active period first; each row's
        ``on_sigterm`` callback runs with ``now``.  Returns the rows
        terminated and the handles among them whose sandbox had booted:
        only those can hold hardware pressure.
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
        booted: list[ContainerInstance] = []
        handles, sigterm = self.handles, self._rows.sigterm
        for row in rows.tolist():
            handle = handles[row]
            callback = sigterm.pop(row, None)
            if callback is not None:
                callback(now)
            handle.alive = False
            if handle._sandbox is not None:
                booted.append(handle)
                handle._sandbox = None
        return rows, booted

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

"""Every draw from an instance row, and the batched probes that take them.

A row's sandbox (:class:`~repro.sandbox.base.Sandbox`) is a view of the
row, and the row has one random stream: ``np.random.default_rng(seed)`` of
its ``seed`` column.  The stream's first draws are the boot draws, the
sandbox's constant wall-clock offset; every later draw (a Gen 1 call
jitter, a CTest window, a sleeper's ``nanosleep``, a served request, a
channel observation) comes after them.  The row's ``probe_words`` column
counts the raw words drawn after the boot draws, and ``clock_reads`` the
clock reads made, so for every row the columns say exactly where its
stream is.

:class:`RowStream` is one row's stream, and every draw from a row goes
through one.  It draws through

* the row's cached generator if the row is *hot*: a row becomes hot when
  code draws through its sandbox, or when its stream passes
  :data:`HOT_WORDS` words.  The cache (:class:`Hot`) lives in the table's
  ``hot`` dict, always where the columns say, and termination drops it;
* else one shared ``PCG64``, set to the row's state just after its boot
  draws (:class:`BootStates`, computed for many rows at once) and jumped
  ``probe_words`` ahead.

:func:`probe_gen1` takes a batch's Gen 1 samples as array draws
(:mod:`repro.fleet.seeding`), building no ``Generator``.  A Gen 1 probe
(:func:`repro.core.probes.gen1_fingerprint_probe`) reads the CPU model, the
frequency the model name reports, one TSC value and one
``clock_gettime``; its random inputs are the boot offset and one call
jitter (:class:`~repro.hardware.noise.SyscallNoiseModel`).  Rows fall in
two classes:

* *fast* rows, most of them: each normal takes its one-word ziggurat path
  and no outlier branch fires, so the boot draws two words and a Gen 1
  probe two more;
* *replay* rows (about 4-5%): a ziggurat rejection or tail word, or an
  outlier branch.  The shared ``PCG64``, set to the row's seeded state,
  draws them through the noise model, exactly as the sandbox would.

A hot row's cache is advanced past the words a batch drew from the row.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, NamedTuple, TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.fleet.instances import TERMINATED, ContainerInstance, _Rows
from repro.fleet.seeding import (
    MASK64,
    MASK128,
    PCG64_MULT,
    Pcg64Streams,
    standard_normal,
    uniform,
)
from repro.hardware.cpu import CPUModel
from repro.hardware.noise import SyscallNoiseModel
from repro.sandbox.base import TscPolicy
from repro.sandbox.microvm import MicroVMSandbox

T = TypeVar("T")
IndexArray = NDArray[np.int64]
FloatColumn = NDArray[np.float64]

#: A row whose stream has drawn this many words gets a cached generator:
#: from there on, re-seeking the shared generator for each draw call (a
#: few microseconds; a CTest window draws 60 words per pressurer on the
#: row's host) costs more than building the row one generator.
HOT_WORDS = 2**10
#: Host columns, in :func:`_host_columns` order.
_TSC_BOOT, _TSC_HZ, _CPU_HZ, _OFFSET_SIGMA, _OFFSET_P, _CALL_SIGMA, _CALL_P = range(7)


class Hot(NamedTuple):
    """A hot row's cache."""

    #: A generator where the row's columns say its stream is.
    rng: np.random.Generator
    #: The sandbox's wall-clock offset, the stream's boot draw.
    offset: float


class Gen1Columns(NamedTuple):
    """What :func:`probe_gen1` measured."""

    #: Batch positions that yielded a sample, ascending.
    positions: NDArray[np.intp]
    #: Per sample: its CPU model, as an index into ``model_names``.
    model_codes: IndexArray
    model_names: list[str]
    #: Per sample: the unrounded boot time ``T_w - tsc / f_r`` (Eq. 4.1).
    boot_times: FloatColumn
    #: Position of the first terminated instance, or the batch length.
    stop: int


def probe_gen1(table: _Rows | None, rows: IndexArray) -> Gen1Columns:
    """Take a Gen 1 sample at each position of a batch, as columns.

    ``rows`` lists the batch's rows of ``table`` in batch order (``table``
    may be ``None`` for an empty batch).  Probes every position before the
    first terminated row (``stop``), as a per-probe loop would: a row
    listed twice draws its second jitter after its first.  Moves each
    probed row's stream and clock-read count.  A row whose model name
    reports no frequency is skipped before it draws.  The caller raises
    for the instance at ``stop``.
    """
    if table is None or not rows.size:
        return _empty(0)
    gone = np.flatnonzero(table.state[rows] == TERMINATED)
    stop = int(gone[0]) if gone.size else int(rows.size)
    if stop == 0:
        return _empty(stop)
    rows = rows[:stop]
    hosts, names, model_codes = _host_columns(table, rows)

    # Models (a Gen 2 guest sees the hypervisor's) and the frequencies
    # their names report.
    services, service_of = np.unique(table.service[rows], return_inverse=True)
    vm = np.array([table.classes[s] is MicroVMSandbox for s in services.tolist()])
    gen2 = vm[service_of.reshape(-1)]
    if gen2.any():
        model_codes[gen2] = len(names)
        names.append(MicroVMSandbox.VIRTUALIZED_MODEL)
    frequencies = [CPUModel.parse_frequency_from_name(name) for name in names]
    reported = np.array(
        [np.nan if frequency is None else frequency for frequency in frequencies]
    )[model_codes]
    sampled = ~np.isnan(reported)

    # The probe's reads, all at the batch's one clock time.
    now = table.clock.now()
    boot_wall = table.boot_time[rows]
    if table.tsc_policy is TscPolicy.EMULATED:
        tsc = ((now - boot_wall) * hosts[:, _CPU_HZ]).astype(np.int64)
        reads = 2  # the trapped rdtsc counts as a system call
    else:
        tsc = ((now - hosts[:, _TSC_BOOT]) * hosts[:, _TSC_HZ]).astype(np.int64)
        if gen2.any():
            since_boot = boot_wall[gen2] - hosts[gen2, _TSC_BOOT]
            tsc[gen2] -= (since_boot * hosts[gen2, _TSC_HZ]).astype(np.int64)
        reads = 1

    # The boot draw (offset) and the probe's draw (one call jitter), the
    # k-th listings of rows together.
    offset = np.empty(stop)
    jitter = np.empty(stop)
    listing = _listing(rows)
    for level in range(int(listing.max()) + 1):
        at = np.flatnonzero(listing == level)
        offset[at], jitter[at] = _draw(table, rows[at], hosts[at], sampled[at], reads)
    wall = (now + offset) + jitter
    boot_times = wall - tsc.astype(np.float64) / reported
    return Gen1Columns(
        np.flatnonzero(sampled), model_codes[sampled], names, boot_times[sampled], stop
    )


def _empty(stop: int) -> Gen1Columns:
    return Gen1Columns(
        np.empty(0, dtype=np.intp),
        np.empty(0, dtype=np.int64),
        [],
        np.empty(0, dtype=np.float64),
        stop,
    )


def _listing(rows: IndexArray) -> IndexArray:
    """Per position, how many earlier positions list the same row."""
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    listing = np.empty(rows.size, dtype=np.int64)
    listing[order] = np.arange(rows.size) - np.repeat(first, np.diff(np.r_[first, rows.size]))
    return listing


def _draw(
    table: _Rows, rows: IndexArray, hosts: FloatColumn, sampled: NDArray[np.bool_], reads: int
) -> tuple[FloatColumn, FloatColumn]:
    """Distinct rows' boot offsets and Gen 1 jitters.

    Moves each sampled row's stream past its jitter and counts its reads;
    a hot row's cache moves with its columns.
    """
    streams = Pcg64Streams(table.seed[rows])
    start_hi, start_lo = streams.hi, streams.lo
    normal, fast = standard_normal(streams.next_raw())
    outlier = uniform(streams.next_raw()) < hosts[:, _OFFSET_P]
    offset = 0.0 + hosts[:, _OFFSET_SIGMA] * normal
    replay = ~fast | outlier
    skipped = table.probe_words[rows].astype(np.int64)
    if skipped.any():
        streams.advance(skipped)
    normal, fast = standard_normal(streams.next_raw())
    outlier = uniform(streams.next_raw()) < hosts[:, _CALL_P]
    jitter = 0.0 + hosts[:, _CALL_SIGMA] * normal
    replay |= sampled & (~fast | outlier)
    words = np.where(sampled, 2, 0)
    for i in np.flatnonzero(replay).tolist():
        _seek(_join(start_hi[i], start_lo[i]), _join(streams.inc_hi[i], streams.inc_lo[i]))
        noise = table.hosts[int(table.host[rows[i]])].syscall_noise
        offset[i], jitter[i], words[i] = _replay(
            _SHARED, _BITS, noise, int(skipped[i]), bool(sampled[i])
        )
    table.probe_words[rows] += words
    table.clock_reads[rows[sampled]] += reads
    if table.hot:
        for i in np.flatnonzero(np.isin(rows, list(table.hot))).tolist():
            table.hot[int(rows[i])].rng.bit_generator.advance(int(words[i]))
    return offset, jitter


def _host_columns(table: _Rows, rows: IndexArray) -> tuple[FloatColumn, list[str], IndexArray]:
    """Per row, the host state a Gen 1 probe reads: one column each, and
    the host's CPU model as an index into the returned model names.

    Read from the host objects on every batch: tests and experiments may
    reassign a host's CPU model or noise model after launch.
    """
    distinct, host_of = np.unique(table.host[rows], return_inverse=True)
    host_of = host_of.reshape(-1)
    hosts = [table.hosts[h] for h in distinct.tolist()]
    code_of: dict[str, int] = {}
    models = np.array(
        [code_of.setdefault(host.cpu.name, len(code_of)) for host in hosts], dtype=np.int64
    )
    columns = np.array(
        [
            (
                host.tsc.boot_time,
                host.tsc.actual_frequency_hz,
                host.cpu.reported_tsc_frequency_hz,
                noise.sandbox_offset_sigma_s,
                noise.sandbox_offset_outlier_probability,
                noise.call_jitter_sigma_s,
                noise.call_outlier_probability,
            )
            for host in hosts
            for noise in (host.syscall_noise,)
        ],
        dtype=np.float64,
    ).reshape(-1, 7)
    return columns[host_of], list(code_of), models[host_of]


def _replay(
    rng: np.random.Generator,
    bit_generator: np.random.PCG64,
    noise: SyscallNoiseModel,
    skipped: int,
    sampled: bool,
) -> tuple[float, float, int]:
    """A row's offset, jitter and probe words, drawn by a generator set to
    the row's seeded state.

    The generator draws through the host's noise model as the sandbox
    would; the words the jitter took are counted by stepping the LCG from
    the state before the draw to the state after it.
    """
    offset = noise.sample_sandbox_offset(rng)
    if skipped:
        bit_generator.advance(skipped)
    if not sampled:
        return offset, 0.0, 0
    start = bit_generator.state["state"]
    jitter = noise.sample_call_jitter(rng)
    end = bit_generator.state["state"]["state"]
    return offset, jitter, _words_between(start["state"], end, start["inc"])


def _words_between(state: int, end: int, increment: int) -> int:
    """The words a PCG64 stream drew to get from ``state`` to ``end``:
    LCG steps, counted one by one (draws take a handful of words)."""
    words = 0
    while state != end:
        state = (state * PCG64_MULT + increment) & MASK128
        words += 1
    return words


#: The one generator every replay and cold :class:`RowStream` draws
#: through, set to a row's state before each use.
_BITS = np.random.PCG64(0)
_SHARED = np.random.Generator(_BITS)


def _seek(state: int, increment: int) -> None:
    """Set the shared generator to one 128-bit PCG64 state."""
    _BITS.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": increment},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _position() -> int:
    """The shared generator's 128-bit state."""
    return int(_BITS.state["state"]["state"])


def _join(high: np.uint64 | int, low: np.uint64 | int) -> int:
    return int(high) << 64 | int(low)


def warm(table: _Rows, row: int) -> Hot:
    """The row's cache, built if the row is cold: a generator seeded as
    ``default_rng(seed)``, past the boot draws and ``probe_words`` more.

    A terminated row's cache is built but not kept.
    """
    hot = table.hot.get(row)
    if hot is None:
        bits = np.random.PCG64(int(table.seed[row]))  # as default_rng(seed)
        rng = np.random.Generator(bits)
        noise = table.hosts[int(table.host[row])].syscall_noise
        hot = Hot(rng, noise.sample_sandbox_offset(rng))
        bits.advance(int(table.probe_words[row]))
        if table.alive(row):
            table.hot[row] = hot
    return hot


class BootStates:
    """Each listed row's PCG64 state just after its sandbox's boot draws.

    A boot draws the sandbox's wall-clock offset
    (:meth:`~repro.hardware.noise.SyscallNoiseModel.sample_sandbox_offset`):
    two words on the one-word ziggurat path with no outlier, which is
    computed for every row at once; the other rows replay the offset
    through the shared generator set to their seeded state.  A boot state
    never goes stale: a row's later draws only add to its
    ``probe_words``.

    Held as columns, 36 bytes a row: per listed row its state and
    increment as ``(high, low)`` uint64 words, and each row's position
    over the span of listed rows.
    """

    def __init__(self, table: _Rows, rows: IndexArray) -> None:
        """``rows``: ascending, distinct."""
        self.table = table
        streams = Pcg64Streams(table.seed[rows])
        seeded_hi, seeded_lo = streams.hi, streams.lo
        hosts, _names, _models = _host_columns(table, rows)
        _normal, fast = standard_normal(streams.next_raw())
        replay = ~fast | (uniform(streams.next_raw()) < hosts[:, _OFFSET_P])
        self.states = np.stack([streams.hi, streams.lo, streams.inc_hi, streams.inc_lo], axis=1)
        for i in np.flatnonzero(replay).tolist():
            _seek(_join(seeded_hi[i], seeded_lo[i]), _join(streams.inc_hi[i], streams.inc_lo[i]))
            noise = table.hosts[int(table.host[rows[i]])].syscall_noise
            noise.sample_sandbox_offset(_SHARED)
            state = _position()
            self.states[i, 0] = state >> 64
            self.states[i, 1] = state & MASK64
        self.first = int(rows[0])
        self.position = np.full(int(rows[-1]) - self.first + 1, -1, dtype=np.int32)
        self.position[rows - self.first] = np.arange(rows.size, dtype=np.int32)

    @classmethod
    def of(cls, instances: Sequence[ContainerInstance]) -> BootStates | None:
        """Boot states of the alive, cold rows among ``instances`` in the
        first one's table; ``None`` when there are none."""
        if not instances:
            return None
        table = instances[0]._rows
        rows = [
            instance.row
            for instance in instances
            if instance._rows is table and instance.alive and instance.row not in table.hot
        ]
        return cls(table, np.unique(rows)) if rows else None

    def stream(self, instance: ContainerInstance) -> RowStream | None:
        """The instance's :class:`RowStream`, or ``None`` if its row is not
        listed."""
        at = instance.row - self.first
        if instance._rows is self.table and 0 <= at < self.position.size:
            listed = int(self.position[at])
            if listed >= 0:
                hi, lo, inc_hi, inc_lo = self.states[listed].tolist()
                return RowStream(self.table, instance.row, hi << 64 | lo, inc_hi << 64 | inc_lo)
        return None


class RowStream:
    """The sandbox stream of one row.

    Draws through the row's cache when the row is hot, else through the
    shared generator set to ``state`` (the row's state after its boot
    draws, with its ``increment``) and jumped ``probe_words`` ahead.  A
    stream built without a state, or whose row has drawn
    :data:`HOT_WORDS` words, makes the row hot first.  Every draw adds
    the words it took to ``probe_words``, every clock read to
    ``clock_reads``.
    """

    __slots__ = ("_table", "_row", "_state", "_increment")

    def __init__(
        self, table: _Rows, row: int, state: int | None = None, increment: int = 0
    ) -> None:
        self._table = table
        self._row = row
        self._state = state
        self._increment = increment

    def generator(self) -> np.random.Generator:
        """A generator where the row's stream is: the row's cache, or the
        shared generator."""
        table, row = self._table, self._row
        hot = table.hot.get(row)
        if hot is not None:
            return hot.rng
        words = int(table.probe_words[row])
        if self._state is None or words >= HOT_WORDS:
            return warm(table, row).rng
        _seek(self._state, self._increment)
        _BITS.advance(words)
        return _SHARED

    @property
    def offset(self) -> float:
        """The sandbox's wall-clock offset (the row becomes hot)."""
        return warm(self._table, self._row).offset

    def random(self, *, out: FloatColumn) -> None:
        """``Generator.random(out=out)`` on the row's stream."""
        table, row = self._table, self._row
        hot = table.hot.get(row)  # generator() inlined: one call per CTest window
        (self.generator() if hot is None else hot.rng).random(out=out)
        table.probe_words[row] += out.size

    def draw(self, sample: Callable[[np.random.Generator], T]) -> T:
        """``sample(generator)`` on the row's stream; its words are counted
        by stepping the LCG from the state before to the state after."""
        rng = self.generator()
        bits = rng.bit_generator
        start = bits.state["state"]
        value = sample(rng)
        end = bits.state["state"]["state"]
        self._table.probe_words[self._row] += _words_between(start["state"], end, start["inc"])
        return value

    def _noise(self) -> SyscallNoiseModel:
        return self._table.hosts[int(self._table.host[self._row])].syscall_noise

    def clock_gettime(self) -> float:
        """``clock_gettime``: the clock plus the sandbox's offset and one
        call jitter."""
        table = self._table
        table.clock_reads[self._row] += 1
        offset = self.offset
        return table.clock.now() + offset + self.draw(self._noise().sample_call_jitter)

    def sleep(self, duration: float) -> None:
        """``nanosleep``: the wake-up overshoots by one call jitter."""
        overshoot = abs(self.draw(self._noise().sample_call_jitter))
        self._table.clock.sleep(max(0.0, duration) + overshoot)


def sandbox_streams(
    instances: Sequence[ContainerInstance], prepared: BootStates | None = None
) -> list[RowStream]:
    """The stream of each alive instance of a CTest batch.

    A hot row's stream draws through its cache; a cold row's through its
    boot state, from ``prepared`` when that lists the row, else from one
    :class:`BootStates` per table over the batch's other cold rows.
    """
    streams: list[RowStream | None] = []
    missing: dict[int, list[int]] = {}
    for position, instance in enumerate(instances):
        table, row = instance._rows, instance.row
        if row in table.hot:
            stream: RowStream | None = RowStream(table, row)
        else:
            stream = None if prepared is None else prepared.stream(instance)
            if stream is None:
                missing.setdefault(id(table), []).append(position)
        streams.append(stream)
    for positions in missing.values():
        listed = [instances[i] for i in positions]
        hashed = BootStates(listed[0]._rows, np.unique([instance.row for instance in listed]))
        for i, instance in zip(positions, listed):
            streams[i] = hashed.stream(instance)
    return streams  # type: ignore[return-value]  # every None was replaced

"""Probes of unbooted rows, taken as array draws.

A Gen 1 probe (:func:`repro.core.probes.gen1_fingerprint_probe`) reads the
CPU model, the frequency the model name reports, one TSC value and one
``clock_gettime``.  In a sandbox booted for it, its only random inputs are
the sandbox stream's first draws: the constant wall-clock offset drawn at
boot, then one call jitter
(:class:`~repro.hardware.noise.SyscallNoiseModel`).  The rest is host state
and the clock, which no probe moves.  :func:`probe_gen1` computes those
draws for a batch's unbooted rows with :mod:`repro.fleet.seeding` and
builds no ``Generator`` or sandbox for them.

A CTest window (:mod:`repro.core.covert`) draws many uniforms from each
tested sandbox's stream, and its one sleeper draws a ``nanosleep``
overshoot.  :func:`sandbox_streams` hands the channel a :class:`RowStream`
for each unbooted row instead of booting it: the row's state just after
its boot draws (:class:`BootStates`, computed for many rows at once), set
into one shared generator before each draw.

Each probed row records how far its probes moved the sandbox it did not
boot: ``probe_words``, the raw words drawn after the boot draws, and
``clock_reads``, the ``clock_gettime`` calls made.  A later boot builds the
sandbox from ``default_rng(seed)`` as an eager boot would, then advances
its stream by ``probe_words`` and restores its call count
(:attr:`~repro.fleet.ContainerInstance.sandbox`), so it is the sandbox the
probes would have left behind.  A re-probe continues from the recorded
position.

Rows fall in three classes:

* *fast* rows, most of them: each normal takes its one-word ziggurat path
  and no outlier branch fires, so the boot draws two words and a Gen 1
  probe two more;
* *replay* rows (about 4-5%): a ziggurat rejection or tail word, or an
  outlier branch.  One shared ``PCG64``, set to the row's seeded state,
  draws them through the noise model, exactly as the sandbox would;
* rows the columns leave to a sandbox: rows already booted, rows listed a
  second time, other sandbox classes, rows near their counters' limits
  and, in a CTest batch, rows of another world.  :func:`probe_gen1`
  leaves them to the caller's per-probe path; :func:`sandbox_streams`
  boots them.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

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
from repro.sandbox.gvisor import GVisorSandbox
from repro.sandbox.microvm import MicroVMSandbox

IndexArray = NDArray[np.int64]
FloatColumn = NDArray[np.float64]

#: Generation codes of the sandbox classes probed as columns.
_GEN1, _GEN2, _OTHER = 0, 1, -1
_GENERATION = {GVisorSandbox: _GEN1, MicroVMSandbox: _GEN2}
#: Rows at or past these counts take the per-probe path, which boots them:
#: one probe adds at most a few dozen words and two reads, so the int16 and
#: int8 columns never overflow.  A CTest window draws from a row's columns
#: only while it stays under the words limit.  That also bounds what a
#: row retested many times spends re-seeking the shared generator (a few
#: microseconds a window; a window draws 60 words per pressurer on its
#: host) before it boots once and draws from its own generator.
_WORDS_LIMIT = 2**10
_READS_LIMIT = 100
#: Host columns, in :func:`_host_columns` order.
_TSC_BOOT, _TSC_HZ, _CPU_HZ, _OFFSET_SIGMA, _OFFSET_P, _CALL_SIGMA, _CALL_P = range(7)


class Gen1Columns(NamedTuple):
    """What :func:`probe_gen1` measured, and what it left to the caller."""

    #: Batch positions that yielded a sample, ascending.
    positions: NDArray[np.intp]
    #: Per sample: its CPU model, as an index into ``model_names``.
    model_codes: IndexArray
    model_names: list[str]
    #: Per sample: the unrounded boot time ``T_w - tsc / f_r`` (Eq. 4.1).
    boot_times: FloatColumn
    #: Batch positions left to the per-probe path, ascending.
    per_probe: list[int]
    #: Position of the first terminated instance, or the batch length.
    stop: int


def probe_gen1(table: _Rows | None, rows: IndexArray) -> Gen1Columns:
    """Take a Gen 1 sample from each unbooted row of a batch, as columns.

    ``rows`` lists the batch's rows of ``table`` in batch order (``table``
    may be ``None`` for an empty batch).  Probes every eligible position
    before the first terminated row (``stop``), as the per-probe loop
    would have, and records each probed row's counters.  A row whose
    model name reports no frequency is probed as far as the per-probe
    path gets before it raises: its boot draws, which the row does not
    record because a later boot repeats them.  The caller probes
    ``per_probe`` itself, after this returns, and raises for the instance
    at ``stop``.
    """
    if table is None or not rows.size:
        return _empty(0)
    gone = np.flatnonzero(table.state[rows] == TERMINATED)
    stop = int(gone[0]) if gone.size else int(rows.size)
    if stop == 0:
        return _empty(stop)
    rows = rows[:stop]
    eligible = np.zeros(stop, dtype=bool)
    eligible[np.unique(rows, return_index=True)[1]] = True
    if table.sandboxes:
        eligible &= ~np.isin(rows, list(table.sandboxes))
    eligible[eligible] &= (table.probe_words[rows[eligible]] < _WORDS_LIMIT) & (
        table.clock_reads[rows[eligible]] < _READS_LIMIT
    )
    generation = _generation(table, rows[eligible])
    eligible[eligible] = generation != _OTHER
    gen2 = generation[generation != _OTHER] == _GEN2
    positions = np.flatnonzero(eligible)
    per_probe = np.flatnonzero(~eligible).tolist()
    if not positions.size:
        return _empty(stop, per_probe)
    rows = rows[positions]
    hosts, names, model_codes = _host_columns(table, rows)

    # Models (a Gen 2 guest sees the hypervisor's) and the frequencies
    # their names report.
    if gen2.any():
        model_codes[gen2] = len(names)
        names.append(MicroVMSandbox.VIRTUALIZED_MODEL)
    frequencies = [CPUModel.parse_frequency_from_name(name) for name in names]
    reported = np.array(
        [np.nan if frequency is None else frequency for frequency in frequencies]
    )[model_codes]
    sampled = ~np.isnan(reported)

    # The boot draw (offset) and the probe's draw (one call jitter).
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
    words = np.full(rows.size, 2, dtype=np.int64)
    for i in np.flatnonzero(replay).tolist():
        _seek(_join(start_hi[i], start_lo[i]), _join(streams.inc_hi[i], streams.inc_lo[i]))
        noise = table.hosts[int(table.host[rows[i]])].syscall_noise
        offset[i], jitter[i], words[i] = _replay(
            _SHARED, _BITS, noise, int(skipped[i]), bool(sampled[i])
        )

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
    wall = (now + offset) + jitter
    boot_times = wall - tsc.astype(np.float64) / reported

    probed = rows[sampled]
    table.probe_words[probed] += words[sampled].astype(np.int16)
    table.clock_reads[probed] += np.int8(reads)
    return Gen1Columns(
        positions[sampled],
        model_codes[sampled],
        names,
        boot_times[sampled],
        per_probe,
        stop,
    )


def _empty(stop: int, per_probe: list[int] | None = None) -> Gen1Columns:
    return Gen1Columns(
        np.empty(0, dtype=np.intp),
        np.empty(0, dtype=np.int64),
        [],
        np.empty(0, dtype=np.float64),
        per_probe or [],
        stop,
    )


def _generation(table: _Rows, rows: IndexArray) -> IndexArray:
    services, service_of = np.unique(table.service[rows], return_inverse=True)
    kinds = np.array(
        [_GENERATION.get(table.classes[s], _OTHER) for s in services.tolist()], dtype=np.int64
    )
    generation: IndexArray = kinds[service_of.reshape(-1)]
    return generation


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


#: The one generator every replay and :class:`RowStream` draws through,
#: set to a row's state before each use.
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


class BootStates:
    """Each listed row's PCG64 state just after its sandbox's boot draws.

    A boot draws the sandbox's wall-clock offset
    (:meth:`~repro.hardware.noise.SyscallNoiseModel.sample_sandbox_offset`):
    two words on the one-word ziggurat path with no outlier, which is
    computed for every row at once; the other rows replay the offset
    through the shared generator set to their seeded state.  A boot state
    never goes stale: a row's later probes only add to its
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
        """Boot states of the alive, unbooted rows of a probed sandbox
        class among ``instances``, in the first one's table; ``None`` when
        there are none."""
        rows = [
            instance.row
            for instance in instances
            if instance.alive and _columnar(instance, instances[0]._rows)
        ]
        return cls(instances[0]._rows, np.unique(rows)) if rows else None

    def stream(self, row: int) -> RowStream | None:
        """The row's :class:`RowStream`, or ``None`` if it is not listed."""
        at = row - self.first
        if 0 <= at < self.position.size:
            listed = int(self.position[at])
            if listed >= 0:
                hi, lo, inc_hi, inc_lo = self.states[listed].tolist()
                return RowStream(self.table, row, hi << 64 | lo, inc_hi << 64 | inc_lo)
        return None


def _columnar(instance: ContainerInstance, table: _Rows) -> bool:
    """Whether a row's draws can be taken from its seeded stream: it is
    unbooted, in ``table`` and of a sandbox class the columns model."""
    return (
        instance._rows is table
        and instance.row not in table.sandboxes
        and table.classes[int(table.service[instance.row])] in _GENERATION
    )


class RowStream:
    """The sandbox stream of an unbooted row, drawn through the shared
    generator.

    Stands in for the row's sandbox in a CTest batch: :meth:`random` for
    the window's draws, :meth:`sleep` for the sleeper's ``nanosleep``.
    Each call sets the shared generator to the row's post-boot state,
    jumps it ``probe_words`` ahead and adds the words it draws to
    ``probe_words``, so a later boot lands where the draws left the
    stream.
    """

    __slots__ = ("_table", "_row", "_state", "_increment")

    def __init__(self, table: _Rows, row: int, state: int, increment: int) -> None:
        self._table = table
        self._row = row
        self._state = state
        self._increment = increment

    def _seek(self) -> None:
        _seek(self._state, self._increment)
        words = int(self._table.probe_words[self._row])
        if words:
            _BITS.advance(words)

    def random(self, *, out: FloatColumn) -> None:
        """``Generator.random(out=out)`` on the row's stream."""
        if out.size:
            self._seek()
            _SHARED.random(out=out)
            self._table.probe_words[self._row] += out.size

    def sleep(self, duration: float) -> None:
        """:meth:`~repro.sandbox.base.Sandbox.sleep` on the row's stream:
        ``nanosleep`` draws its overshoot from the host's call jitter."""
        table, row = self._table, self._row
        self._seek()
        start = _position()
        noise = table.hosts[int(table.host[row])].syscall_noise
        overshoot = abs(noise.sample_call_jitter(_SHARED))
        table.probe_words[row] += _words_between(start, _position(), self._increment)
        table.clock.sleep(max(0.0, duration) + overshoot)


def sandbox_streams(
    instances: Sequence[ContainerInstance],
    bounds: Sequence[int],
    prepared: BootStates | None = None,
) -> list[np.random.Generator | RowStream]:
    """The stream each alive instance of a CTest batch draws from.

    ``bounds[i]`` caps the words the caller draws from instance ``i``.  An
    unbooted row of the first instance's table, of a probed sandbox
    class, with room for ``bounds[i]`` more words under
    :data:`_WORDS_LIMIT`, gets a :class:`RowStream`: from ``prepared``
    when it holds the row, else from one :class:`BootStates` over the
    batch's other such rows.  Every other instance boots its sandbox (if
    it has not) and gives the sandbox's generator.
    """
    if not instances:
        return []
    table = instances[0]._rows
    if prepared is not None and prepared.table is not table:
        prepared = None
    words = table.probe_words
    streams: list[np.random.Generator | RowStream | None] = []
    missing: list[int] = []
    for instance, bound in zip(instances, bounds):
        row = instance.row
        if not (_columnar(instance, table) and int(words[row]) + bound <= _WORDS_LIMIT):
            streams.append(instance.sandbox._rng)
            continue
        stream = prepared.stream(row) if prepared is not None else None
        if stream is None:
            missing.append(len(streams))
        streams.append(stream)
    if missing:
        hashed = BootStates(table, np.unique([instances[i].row for i in missing]))
        for i in missing:
            streams[i] = hashed.stream(instances[i].row)
    return streams  # type: ignore[return-value]  # every None was replaced

"""Gen 1 fingerprint samples of unbooted rows, taken as array draws.

A Gen 1 probe (:func:`repro.core.probes.gen1_fingerprint_probe`) reads the
CPU model, the frequency the model name reports, one TSC value and one
``clock_gettime``.  In a sandbox booted for it, its only random inputs are
the sandbox stream's first draws: the constant wall-clock offset drawn at
boot, then one call jitter
(:class:`~repro.hardware.noise.SyscallNoiseModel`).  The rest is host state
and the clock, which no probe moves.  :func:`probe_gen1` computes those
draws for a batch's unbooted rows with :mod:`repro.fleet.seeding` and
builds no ``Generator`` or sandbox for them.

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
  and no outlier branch fires, so the boot draws two words and the probe
  two more;
* *replay* rows (about 4-5%): a ziggurat rejection or tail word, or an
  outlier branch.  A real ``default_rng(seed)`` draws them through the
  noise model, exactly as the sandbox would;
* *per-probe* rows, which :func:`probe_gen1` leaves to the caller: rows
  already booted, rows listed a second time, rows of another world, other
  sandbox classes and rows near their counters' limits.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from repro.fleet.instances import ContainerInstance, _Rows
from repro.fleet.seeding import MASK128, PCG64_MULT, Pcg64Streams, standard_normal, uniform
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
#: int8 columns never overflow.
_WORDS_LIMIT = 2**14
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


def probe_gen1(instances: Sequence[ContainerInstance]) -> Gen1Columns:
    """Take a Gen 1 sample from each unbooted row of a batch, as columns.

    Probes every eligible position before the first terminated instance
    (``stop``), as the per-probe loop would have, and records each probed
    row's counters.  A row whose model name reports no frequency is
    probed as far as the per-probe path gets before it raises: its boot
    draws, which the row does not record because a later boot repeats
    them.  The caller probes ``per_probe`` itself, after this returns, and
    raises for the instance at ``stop``.
    """
    stop = len(instances)
    for position, instance in enumerate(instances):
        if not instance.alive:
            stop = position
            break
    if stop == 0:
        return _empty(stop)
    table = instances[0]._rows
    batch = instances[:stop]
    rows = np.fromiter((instance.row for instance in batch), np.int64, stop)
    eligible = np.fromiter(
        (instance._sandbox is None and instance._rows is table for instance in batch),
        bool,
        stop,
    )
    first = np.zeros(stop, dtype=bool)
    first[np.unique(rows, return_index=True)[1]] = True
    eligible &= first
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
    if replay.any():
        bit_generator = np.random.PCG64(0)  # set to each row's seeded state
        rng = np.random.Generator(bit_generator)
        for i in np.flatnonzero(replay).tolist():
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {
                    "state": int(start_hi[i]) << 64 | int(start_lo[i]),
                    "inc": int(streams.inc_hi[i]) << 64 | int(streams.inc_lo[i]),
                },
                "has_uint32": 0,
                "uinteger": 0,
            }
            noise = table.hosts[int(table.host[rows[i]])].syscall_noise
            offset[i], jitter[i], words[i] = _replay(
                rng, bit_generator, noise, int(skipped[i]), bool(sampled[i])
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
    state, increment, words = start["state"], start["inc"], 0
    while state != end:
        state = (state * PCG64_MULT + increment) & MASK128
        words += 1
    return offset, jitter, words

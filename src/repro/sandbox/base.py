"""Common sandbox interface exposed to guest probe programs.

The attacker's probe code (e.g.
:func:`repro.core.frequency.measure_tsc_frequency`) is written once
against this interface and runs unchanged in both sandbox generations; what
differs is which operations succeed, which are emulated, and what hardware
state leaks through.
"""

from __future__ import annotations

import abc
import enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.fleet.instances import _Rows
    from repro.fleet.probe import RowStream
    from repro.hardware.host import PhysicalHost
    from repro.simtime.clock import SimClock


class TscPolicy(enum.Enum):
    """How the environment exposes the timestamp counter to guests.

    ``NATIVE``
        ``rdtsc`` executes on bare hardware (Gen 1 default) or with only a
        constant offset applied (Gen 2 default).
    ``EMULATED``
        The kernel/hypervisor traps ``rdtsc`` and serves a virtualized
        counter that starts at zero at sandbox boot and ticks at exactly the
        reported frequency — the mitigation discussed in paper §6.  This
        hides both the host's boot time and its true frequency, at the cost
        of syscall-priced timer reads.
    """

    NATIVE = "native"
    EMULATED = "emulated"


class Sandbox(abc.ABC):
    """The sandboxed execution environment of one instance, as a view of
    its row.

    A sandbox holds nothing but its table and row.  Its host, clock, TSC
    policy, boot wall time and id are read from the row, and every draw
    (syscall jitter, channel observations, request jitter) goes through
    the row's stream (:class:`~repro.fleet.probe.RowStream`), which
    records in the row's columns how far it moved.  So any number of views
    of one row are one sandbox, and building one draws nothing.

    Parameters
    ----------
    rows:
        The instance table (:class:`~repro.fleet.instances._Rows`).
    row:
        The instance's row.
    """

    #: Human-readable generation tag ("gen1" / "gen2").
    generation: str = "abstract"

    def __init__(self, rows: _Rows, row: int) -> None:
        self._rows = rows
        self.row = row

    @property
    def _host(self) -> PhysicalHost:
        return self._rows.hosts[self._rows.host[self.row]]

    @property
    def _clock(self) -> SimClock:
        return self._rows.clock

    @property
    def _stream(self) -> RowStream:
        return self._rows.stream(self.row)

    @property
    def _rng(self) -> np.random.Generator:
        """The row's cached generator, where the row's columns say its
        stream is (the row becomes hot).  For reading the stream's state:
        a draw through it is not counted in the columns."""
        return self._stream.generator()

    @property
    def sandbox_id(self) -> str:
        """Identifier the sandbox registers channel pressure under."""
        return self._rows.instance_id(self.row)

    @property
    def tsc_policy(self) -> TscPolicy:
        """Whether the TSC is exposed natively or emulated (mitigation)."""
        return self._rows.tsc_policy

    @property
    def boot_wall_time(self) -> float:
        """Wall time the sandbox booted at: its instance's launch commit,
        which Gen 2 TSC offsetting and the emulated TSC count from."""
        return float(self._rows.boot_time[self.row])

    @property
    def sandbox_offset(self) -> float:
        """The constant wall-clock offset of the sandbox's clock reads
        (seconds): its stream's first draw."""
        return self._stream.offset

    @property
    def call_count(self) -> int:
        """System calls made so far: clock reads and trapped ``rdtsc``."""
        return int(self._rows.clock_reads[self.row])

    # ------------------------------------------------------------------
    # Instruction-level surface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def rdtsc(self) -> int:
        """Execute the unprivileged ``rdtsc`` instruction."""

    @abc.abstractmethod
    def cpuid_model(self) -> str:
        """Return the CPU model string visible through ``cpuid``."""

    def cpuid_tsc_frequency(self) -> float | None:
        """TSC frequency reported by ``cpuid`` leaf 0x15, if enumerated.

        Cloud Run hosts do not enumerate it (paper §4.2), so both sandbox
        generations return ``None``; attackers fall back to the frequency
        labeled in the model name.
        """
        return None

    # ------------------------------------------------------------------
    # Kernel/VM surface
    # ------------------------------------------------------------------
    def wall_clock(self) -> float:
        """Read the wall clock through a (noisy) system call.

        Hosts keep accurate time via NTP, so the reading carries only the
        sandbox's constant offset (its userspace kernel keeps its own time
        state) and the host's per-call jitter (:mod:`repro.hardware.noise`).
        """
        return self._stream.clock_gettime()

    def sleep(self, duration: float) -> None:
        """Sleep for ``duration`` seconds of wall time (plus jitter)."""
        self._stream.sleep(duration)

    def kernel_tsc_khz(self) -> float:
        """Read the kernel's refined TSC frequency, in kHz.

        Requires root inside a real kernel; only the Gen 2 guest can do it.

        Raises
        ------
        PrivilegeError
            In environments where the guest cannot reach a real kernel.
        """
        return self.host_kernel_tsc_khz(self._host, self.tsc_policy)

    @classmethod
    @abc.abstractmethod
    def host_kernel_tsc_khz(cls, host: PhysicalHost, tsc_policy: TscPolicy) -> float:
        """What :meth:`kernel_tsc_khz` reads in this generation on ``host``.

        The read depends on the host and the TSC policy alone and draws
        nothing, so an instance can answer it without booting a sandbox.
        """

    @abc.abstractmethod
    def proc_uptime(self) -> float:
        """Read ``/proc/uptime`` as visible inside the sandbox.

        Both generations virtualize it, so it never exposes host uptime.
        """

    def proc_cpuinfo_model(self) -> str:
        """Model name from the emulated ``/proc/cpuinfo`` (concealed)."""
        return "unknown"

    # ------------------------------------------------------------------
    # Shared-hardware covert channel
    # ------------------------------------------------------------------
    def start_channel_pressure(self, kind: str) -> None:
        """Begin pressuring one registered covert-channel kind (an RDRAND
        loop for ``rng``, an atomic-op loop for ``bus``, ...).

        The row becomes hot, so its termination releases the pressure.
        """
        self._stream.generator()
        self._host.channel_resource(kind).start_pressure(self.sandbox_id)

    def stop_channel_pressure(self, kind: str) -> None:
        """Stop pressuring one registered covert-channel kind."""
        self._host.channel_resource(kind).stop_pressure(self.sandbox_id)

    # ------------------------------------------------------------------
    # Request serving (victim-side latency surface)
    # ------------------------------------------------------------------

    #: Fractional response-time stretch per concurrent memory-bus locker.
    BUS_LOCK_SLOWDOWN = 0.9
    #: Upper bound of the uniform per-request scheduling jitter (fraction).
    SERVE_JITTER = 0.08

    def serve_request(self, processing_seconds: float) -> float:
        """Serve one inbound request; returns the response wall-time.

        Request handling is memory-bound, so response time stretches with
        the number of co-located tenants currently *locking* the memory
        bus (atomic-op loops): each locker adds :attr:`BUS_LOCK_SLOWDOWN`
        of the base processing time.  Ordinary scheduling noise appears
        as a uniform jitter bounded by :attr:`SERVE_JITTER` — well below
        one locker's slowdown, which is what lets the Target Victim
        Locator separate locked from unlocked with an *absolute* latency
        threshold instead of a differential one.
        """
        lockers = self._host.memory_bus.pressurer_count
        latency = (
            processing_seconds
            * (1.0 + self.BUS_LOCK_SLOWDOWN * lockers)
            * (1.0 + self._stream.draw(lambda rng: rng.uniform(0.0, self.SERVE_JITTER)))
        )
        return latency

    # ------------------------------------------------------------------
    # Helpers shared by concrete sandboxes
    # ------------------------------------------------------------------
    def _emulated_rdtsc(self) -> int:
        """Virtualized TSC used under the EMULATED mitigation policy.

        Starts at zero at sandbox boot and ticks at exactly the reported
        frequency; the trap adds syscall-grade latency, modeled by counting
        the read as a system call.
        """
        self._rows.clock_reads[self.row] += 1
        elapsed = self._clock.now() - self.boot_wall_time
        return int(elapsed * self._host.cpu.reported_tsc_frequency_hz)

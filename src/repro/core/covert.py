"""The n-way covert-channel test primitive ``CTest`` (paper §4.3).

``CTest(i_1, ..., i_n) -> (b_1, ..., b_n)`` instructs all *n* instances to
simultaneously pressure a shared host resource and returns, per instance,
whether it observed contention above a threshold ``m``.  With each instance
contributing one unit of pressure, an instance tests positive only when at
least ``m`` pressurers (itself included) share its host — so ``m..2m-1``
positive instances in one test are *guaranteed* to share a single host.

The concrete channel here contends on the hardware random number generator,
chosen by the paper for its <1% background-contention rate.  A positive
verdict requires contention in at least ``required_rounds`` of
``total_rounds`` observations (the paper uses 30 of 60), which suppresses
both background false positives and scheduling false negatives.
"""

from __future__ import annotations

import abc
import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from repro.cloud.api import InstanceHandle
from repro.errors import VerificationError
from repro.faults import FaultPlan, current_fault_plan
from repro.hardware.channels import DvfsFrequencyResource
from repro.hardware.rng_resource import ContentionResource, window_hits
from repro.sandbox.base import Sandbox
from repro.telemetry import HistogramSummary, MetricSet, current_telemetry

if TYPE_CHECKING:
    from repro.fleet.probe import BootStates, RowStream


@dataclass(frozen=True)
class CTestResult:
    """Outcome of one n-way covert-channel test."""

    handles: tuple[InstanceHandle, ...]
    positive: tuple[bool, ...]

    @property
    def positive_handles(self) -> tuple[InstanceHandle, ...]:
        """The instances that observed contention above the threshold."""
        return tuple(h for h, p in zip(self.handles, self.positive) if p)

    @property
    def n_positive(self) -> int:
        """Number of positive instances."""
        return sum(self.positive)


class ChannelStats:
    """Cost accounting for covert-channel usage, backed by typed counters.

    The legacy field names (``n_tests``, ``busy_seconds``, ...) remain as
    properties over a per-channel :class:`~repro.telemetry.MetricSet`, so
    existing consumers keep working while the counters gain the telemetry
    semantics: re-entrant consumers take a :meth:`snapshot` before a call
    and read :meth:`since` deltas after, instead of resetting shared state
    (which double-counts when two verifications share one channel).

    ``retries`` counts tests re-run after an inconsistent verdict (by the
    verifier's retry policy); ``faults_injected`` counts the noise flips
    and mid-test deaths an active :class:`~repro.faults.FaultPlan` put
    into this channel's results.  Both stay 0 on a clean run.
    """

    def __init__(self) -> None:
        self.metrics = MetricSet()

    @property
    def n_tests(self) -> int:
        return int(self.metrics.counter("tests"))

    @property
    def n_instance_slots(self) -> int:
        return int(self.metrics.counter("instance_slots"))

    @property
    def busy_seconds(self) -> float:
        return float(self.metrics.counter("busy_seconds"))

    @property
    def batches(self) -> int:
        return int(self.metrics.counter("batches"))

    @property
    def retries(self) -> int:
        return int(self.metrics.counter("retries"))

    @retries.setter
    def retries(self, value: int) -> None:
        self.metrics.counters["retries"] = value

    @property
    def faults_injected(self) -> int:
        return int(self.metrics.counter("faults_injected"))

    @faults_injected.setter
    def faults_injected(self, value: int) -> None:
        self.metrics.counters["faults_injected"] = value

    @property
    def per_batch_tests(self) -> HistogramSummary:
        """Read-only summary view of per-batch test counts.

        Backed by the ``batch_tests`` histogram (count/total/min/max/mean)
        instead of the raw per-batch list this attribute used to be, so a
        long campaign's memory stays O(1) next to the typed metrics.
        Consumers that relied on the list should read the summary fields
        — the raw sequence is no longer retained.
        """
        return self.metrics.histograms.get("batch_tests", HistogramSummary())

    def snapshot(self) -> dict[str, float]:
        """Counter snapshot for re-entrancy-safe per-call deltas."""
        return self.metrics.snapshot()

    def since(self, snapshot: dict[str, float]) -> dict[str, float]:
        """Counter growth since :meth:`snapshot` (absent keys grew by 0)."""
        return self.metrics.since(snapshot)

    def record_batch(self, group_sizes: Sequence[int], seconds: float) -> None:
        """Record one (possibly parallel) batch of tests."""
        self.metrics.inc("tests", len(group_sizes))
        self.metrics.inc("instance_slots", sum(group_sizes))
        self.metrics.inc("busy_seconds", seconds)
        self.metrics.inc("batches")
        self.metrics.observe("batch_tests", len(group_sizes))

    def summary(self) -> str:
        """One-line human-readable report of the counters."""
        text = (
            f"{self.n_tests} tests in {self.batches} batches, "
            f"{self.busy_seconds:.1f}s busy"
        )
        if self.retries or self.faults_injected:
            text += (
                f", {self.retries} retries, "
                f"{self.faults_injected} faults injected"
            )
        return text


class _Observer(NamedTuple):
    """One started instance of a CTest batch."""

    handle: InstanceHandle
    #: Its host's contention domain of the channel's kind.
    resource: ContentionResource
    #: Its row's sandbox stream.
    stream: RowStream


class CovertChannel(abc.ABC):
    """Abstract CTest provider."""

    def __init__(self) -> None:
        self.stats = ChannelStats()

    @contextlib.contextmanager
    def prepared(self, handles: Sequence[InstanceHandle]) -> Iterator[None]:
        """Run the block's tests knowing every instance they will test.

        A verifier opens this once around a run over ``handles`` so the
        channel can set up per-instance state once instead of per batch.
        Tests outside the block, or of instances not listed, still work.
        A no-op here.
        """
        yield

    @abc.abstractmethod
    def ctest_batch(
        self,
        groups: Sequence[Sequence[InstanceHandle]],
        threshold_m: int | Sequence[int],
    ) -> list[CTestResult]:
        """Run several CTests *concurrently* and return one result each.

        ``threshold_m`` may be a single threshold for every group or one
        per group (the threshold is an analysis parameter of each test,
        paper §4.3).  Concurrent groups interfere if they share hosts; the
        caller is responsible for only batching groups that are guaranteed
        disjoint (e.g. different CPU models, or Gen 2 fingerprints, which
        cannot produce false negatives).
        """

    def ctest(
        self, handles: Sequence[InstanceHandle], threshold_m: int = 2
    ) -> CTestResult:
        """Run a single CTest over ``handles``."""
        return self.ctest_batch([handles], threshold_m)[0]


class RngCovertChannel(CovertChannel):
    """CTest over hardware-RNG contention (the paper's channel).

    Also the concrete base of every registry-backed channel: subclasses
    *declare* their :attr:`kind` (a :mod:`repro.hardware.channels` registry
    name), and each tested instance pressures its host's resource of that
    kind (:meth:`~repro.fleet.ContainerInstance.channel_resource`).

    Each test window runs on one round engine: a single
    :func:`~repro.hardware.rng_resource.window_hits` call over every
    started instance of the batch, byte-identical to probing every
    instance once per round (that per-round reference is a test oracle in
    ``tests/oracles``).  Each row's window and the sleeper's overshoot are
    drawn from the row's stream
    (:func:`repro.fleet.probe.sandbox_streams`); the boot states of cold
    rows are hashed once per :meth:`prepared` block or, outside one, once
    per batch.

    Parameters
    ----------
    total_rounds / required_rounds:
        An instance is positive when at least ``required_rounds`` of its
        ``total_rounds`` observations show contention >= the threshold.
        The paper requires 30 of 60; with sub-1% background contention the
        resulting false-positive risk is negligible.
    seconds_per_test:
        Wall-clock duration of one test window (all rounds); concurrent
        groups in a batch share the window.
    fault_plan:
        Optional deterministic fault schedule injecting per-test verdict
        noise and mid-test instance deaths.  Defaults to the ambient plan
        (:func:`~repro.faults.current_fault_plan`), so channels built
        inside a fault-injected experiment cell pick it up automatically.
    """

    #: Registry name of the covert-channel kind this class tests over.
    kind: ClassVar[str] = "rng"

    def __init__(
        self,
        total_rounds: int = 60,
        required_rounds: int = 30,
        seconds_per_test: float = 1.2,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        super().__init__()
        if not 0 < required_rounds <= total_rounds:
            raise VerificationError(
                f"required_rounds must be in (0, total_rounds], got "
                f"{required_rounds}/{total_rounds}"
            )
        self.total_rounds = total_rounds
        self.required_rounds = required_rounds
        self.seconds_per_test = seconds_per_test
        self.fault_plan = fault_plan if fault_plan is not None else current_fault_plan()
        self._batch_serial = 0
        self._boot_states: BootStates | None = None
        #: Per-instance contention-hit counts of the most recent test
        #: window (diagnostics; the identity suites pin it to the oracle).
        self._last_hits: dict[str, int] = {}

    @contextlib.contextmanager
    def prepared(self, handles: Sequence[InstanceHandle]) -> Iterator[None]:
        # Hash every cold row once for a whole verification, not once per
        # batch; the states are dropped when the block exits.
        from repro.fleet.probe import BootStates  # deferred: loads the PCG64 port

        outer = self._boot_states
        self._boot_states = BootStates.of([handle._instance for handle in handles])
        try:
            yield
        finally:
            self._boot_states = outer

    def ctest_batch(
        self,
        groups: Sequence[Sequence[InstanceHandle]],
        threshold_m: int | Sequence[int],
    ) -> list[CTestResult]:
        if isinstance(threshold_m, int):
            thresholds = [threshold_m] * len(groups)
        else:
            thresholds = list(threshold_m)
            if len(thresholds) != len(groups):
                raise VerificationError(
                    f"got {len(thresholds)} thresholds for {len(groups)} groups"
                )
        if any(t < 2 for t in thresholds):
            raise VerificationError(f"thresholds must be >= 2, got {thresholds}")
        flat: list[InstanceHandle] = [h for group in groups for h in group]
        if len({h.instance_id for h in flat}) != len(flat):
            raise VerificationError("an instance appears twice in one CTest batch")

        # One serial number per ctest_batch call keys the fault plan's
        # decisions, so a *retry* of the same chunks is a fresh draw.
        serial = self._batch_serial
        self._batch_serial += 1
        telemetry = current_telemetry()
        span = telemetry.span(
            "ctest.batch",
            serial=serial,
            groups=len(groups),
            sizes=[len(group) for group in groups],
            thresholds=list(thresholds),
            rounds=self.total_rounds,
        )
        try:
            results = self._run_ctest_batch(groups, thresholds, serial)
        finally:
            span.close()
        span.set(positives=[result.n_positive for result in results])
        telemetry.count("ctest.tests", len(groups))
        telemetry.count("ctest.instance_slots", sum(len(g) for g in groups))
        telemetry.count("ctest.busy_seconds", self.seconds_per_test)
        telemetry.count("ctest.batches")
        return results

    def _run_ctest_batch(
        self,
        groups: Sequence[Sequence[InstanceHandle]],
        thresholds: list[int],
        serial: int,
    ) -> list[CTestResult]:
        flat: list[InstanceHandle] = [h for group in groups for h in group]
        threshold_of = {
            h.instance_id: t for group, t in zip(groups, thresholds) for h in group
        }
        plan = self.fault_plan
        death_round: dict[str, int] = {}
        if plan is not None:
            for handle in flat:
                when = plan.ctest_death_round(
                    f"b{serial}:{handle.instance_id}", self.total_rounds
                )
                if when is not None:
                    death_round[handle.instance_id] = when
                    self.stats.faults_injected += 1

        # Instances that stop responding mid-test (injected deaths, or a
        # platform reap racing the test) stop pressuring and report no
        # further rounds; the attacker reads silence as a negative.  Each
        # instance pressures its host's resource directly.
        dead: set[str] = set()
        pressured: list[tuple[InstanceHandle, ContentionResource]] = []
        for handle in flat:
            instance = handle._instance
            if not instance.alive:
                dead.add(handle.instance_id)
                continue
            resource = instance.channel_resource(self.kind)
            resource.start_pressure(handle.instance_id)
            pressured.append((handle, resource))
        try:
            started = self._observers(pressured)
            hits = {handle.instance_id: 0 for handle in flat}
            hits.update(self._observe_window(started, dead, death_round, threshold_of))
            self._last_hits = hits
            # The test window occupies wall time *while* the pressure is
            # on: the first instance still responding sleeps through it.
            for handle, _resource, stream in started:
                if handle.instance_id in dead:
                    continue
                if not handle.alive:
                    dead.add(handle.instance_id)
                    continue
                stream.sleep(self.seconds_per_test)
                break
        finally:
            # A row terminated during the sleep may be cold, and termination
            # releases the pressure of hot rows only, so it stops here.
            for handle, resource in pressured:
                if handle.instance_id not in dead:
                    resource.stop_pressure(handle.instance_id)

        self.stats.record_batch([len(g) for g in groups], self.seconds_per_test)

        results = []
        for group in groups:
            positive = []
            for handle in group:
                instance_id = handle.instance_id
                verdict = (
                    instance_id not in dead
                    and hits[instance_id] >= self.required_rounds
                )
                if plan is not None and plan.ctest_noise(f"b{serial}:{instance_id}"):
                    verdict = not verdict
                    self.stats.faults_injected += 1
                positive.append(verdict)
            results.append(
                CTestResult(handles=tuple(group), positive=tuple(positive))
            )
        return results

    def _observers(
        self, pressured: Sequence[tuple[InstanceHandle, ContentionResource]]
    ) -> list[_Observer]:
        """Each pressuring instance with its row's sandbox stream."""
        from repro.fleet.probe import sandbox_streams  # deferred: loads the PCG64 port

        streams = sandbox_streams(
            [handle._instance for handle, _resource in pressured], self._boot_states
        )
        return [
            _Observer(handle, resource, stream)
            for (handle, resource), stream in zip(pressured, streams)
        ]

    def _observe_window(
        self,
        started: Sequence[_Observer],
        dead: set[str],
        death_round: dict[str, int],
        threshold_of: dict[str, int],
    ) -> dict[str, int]:
        """Contention-hit counts of one test window, per started instance.

        One :func:`~repro.hardware.rng_resource.window_hits` call over the
        whole batch, byte-identical to probing every started instance once
        per round in flat order.  No sim time passes between starting the
        pressure and the window, so every started instance is still alive
        here.
        """
        ids = [handle.instance_id for handle, _resource, _stream in started]
        hits = window_hits(
            [
                (resource, instance_id, stream)
                for (_handle, resource, stream), instance_id in zip(started, ids)
            ],
            self.total_rounds,
            [threshold_of[instance_id] for instance_id in ids],
            stop_rounds=[death_round.get(instance_id) for instance_id in ids],
        )
        # Mid-window fault deaths: ``window_hits`` already truncated the
        # dying instance's observations and pressure contribution at its
        # death slot, so only the state transition (dead + unregister)
        # remains.
        for handle, resource, _stream in started:
            if handle.instance_id in death_round:
                dead.add(handle.instance_id)
                resource.stop_pressure(handle.instance_id)
        return dict(zip(ids, hits.tolist()))


class MemoryBusCovertChannel(RngCovertChannel):
    """CTest over memory-bus contention (the prior-work channel).

    Varadarajan et al. verified VM co-location through the memory-bus
    contention channel of Wu et al.  It works, but ordinary tenants
    exercise the bus constantly, so background contention is common and a
    test must either integrate longer or accept false positives — one of
    the reasons the paper builds its methodology on the rarely-used RNG
    instead.  The default window matches the several-seconds-per-test
    figure the paper quotes for this channel.
    """

    kind: ClassVar[str] = "bus"

    def __init__(
        self,
        total_rounds: int = 60,
        required_rounds: int = 42,
        seconds_per_test: float = 4.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        super().__init__(
            total_rounds=total_rounds,
            required_rounds=required_rounds,
            seconds_per_test=seconds_per_test,
            fault_plan=fault_plan,
        )


class LlcOccupancyChannel(RngCovertChannel):
    """CTest over LLC cache-occupancy contention (Zhao & Fletcher).

    The per-round signal is coarse — occupancy stops resolving individual
    sweepers once the cache is fully thrashed (the resource's
    ``saturation`` clamp) — and ordinary tenant working sets keep the
    background-contention floor an order of magnitude above the RNG
    channel's, so the default window integrates as long as the RNG test
    but accepts a laxer hit quota.  Everything else (``window_hits``
    batching, fault-death semantics, verdict noise) is the shared engine,
    unchanged.
    """

    kind: ClassVar[str] = "llc"

    def __init__(
        self,
        total_rounds: int = 60,
        required_rounds: int = 36,
        seconds_per_test: float = 2.5,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        super().__init__(
            total_rounds=total_rounds,
            required_rounds=required_rounds,
            seconds_per_test=seconds_per_test,
            fault_plan=fault_plan,
        )


class DvfsFingerprintChannel(RngCovertChannel):
    """CTest over DVFS frequency-step contention (Dipta et al.).

    Pressure here is *sustained CPU load* in the frequency-step contention
    domain.  What the guest physically records
    is its own spin-loop frequency — the sustained-load frequency *trace*
    exposed by :meth:`frequency_trace_hz` — but the level-to-frequency map
    is strictly monotone decreasing
    (:meth:`~repro.hardware.channels.DvfsFrequencyResource.frequency_of_level`),
    so thresholding the level stream at ``m`` is the same verdict as
    thresholding the frequency trace at :meth:`frequency_threshold_hz`,
    and the CTest verdict machinery runs unchanged.
    """

    kind: ClassVar[str] = "dvfs"

    def __init__(
        self,
        total_rounds: int = 40,
        required_rounds: int = 24,
        seconds_per_test: float = 3.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        super().__init__(
            total_rounds=total_rounds,
            required_rounds=required_rounds,
            seconds_per_test=seconds_per_test,
            fault_plan=fault_plan,
        )

    def _frequency_resource(self, sandbox: Sandbox) -> DvfsFrequencyResource:
        resource = sandbox._host.channel_resource(self.kind)
        if not isinstance(resource, DvfsFrequencyResource):
            raise VerificationError(
                f"dvfs channel needs a DvfsFrequencyResource, got "
                f"{type(resource).__name__}"
            )
        return resource

    def frequency_trace_hz(self, sandbox: Sandbox, levels) -> np.ndarray:
        """Map one window's contention levels to the guest-visible trace.

        This is the raw measurement a real attacker records: one achieved
        spin-loop frequency per round, via
        :func:`repro.core.frequency.sustained_load_frequency_hz`.
        """
        from repro.core.frequency import sustained_load_frequency_hz

        resource = self._frequency_resource(sandbox)
        return np.asarray(sustained_load_frequency_hz(resource, levels))

    def frequency_threshold_hz(self, sandbox: Sandbox, threshold_m: int) -> float:
        """Frequency below which a round counts as contended at ``m``."""
        return self._frequency_resource(sandbox).frequency_of_level(threshold_m)


#: Channel kind -> CTest provider class: the construction-side mirror of
#: the :mod:`repro.hardware.channels` resource registry.
COVERT_CHANNEL_CLASSES: dict[str, type[RngCovertChannel]] = {
    RngCovertChannel.kind: RngCovertChannel,
    MemoryBusCovertChannel.kind: MemoryBusCovertChannel,
    LlcOccupancyChannel.kind: LlcOccupancyChannel,
    DvfsFingerprintChannel.kind: DvfsFingerprintChannel,
}


def covert_channel_for(kind: str, **kwargs) -> RngCovertChannel:
    """Build the CTest provider for a channel kind.

    Keyword arguments pass through to the class constructor (rounds,
    window length, ``fault_plan``).
    """
    try:
        cls = COVERT_CHANNEL_CLASSES[kind]
    except KeyError:
        known = ", ".join(sorted(COVERT_CHANNEL_CLASSES))
        raise VerificationError(
            f"no covert channel for kind {kind!r}; known kinds: {known}"
        ) from None
    return cls(**kwargs)


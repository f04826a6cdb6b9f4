"""Open-loop multi-tenant background traffic for a live datacenter.

Every coverage, census, and locator experiment historically ran against a
dead-quiet region: the only load was whatever the attacker launched.  Real
serverless campaigns contend with thousands of other tenants whose
services scale up and down continuously (the recruiter, autoscaler, and
idle-termination machinery of §2.2/§5.1 exist *because* regions are
busy).  This module adds that background world:

* :class:`TenantPopulation` — a batched tenant generator.  Service
  configurations are NumPy-sampled in a few array draws, and each
  tenant's demand schedule is precomputed up front as one vectorized
  :meth:`~repro.cloud.workloads.RequestPattern.concurrency_series` call —
  no per-tick Python in the simulation loop.
* :class:`BackgroundDriver` — an event-driven autoscale driver.  Instead
  of a blocking loop in which one tenant owns the clock, evaluation events
  are registered on the orchestrator's
  :class:`~repro.simtime.scheduler.EventScheduler`, so thousands of
  tenants and the attack interleave on one
  :class:`~repro.simtime.clock.SimClock`.  Tenants sharing an evaluation
  phase are batched: one event reads their targets as a fancy-indexed
  slice of the precomputed schedule matrix, compares against the columnar
  :class:`~repro.fleet.InstanceStore` per-service ACTIVE counts, and only
  tenants whose target actually changed pay for an orchestrator call.

Determinism contract
--------------------
Interleaved tenants must not perturb the foreground's randomness, and
traffic runs must reproduce under any event ordering (``--jobs``,
``PYTHONHASHSEED``).  Three rules deliver that:

* tenant *configurations* are drawn once, up front, from a dedicated
  seeded generator (fixed draw order at build time);
* tenant *schedules* come from per-tenant generators seeded by hashing
  ``(seed, tenant)`` — FaultPlan-style — so one tenant's series never
  depends on another's;
* runtime randomness (idle-reap deadlines) is routed through
  :meth:`~repro.cloud.orchestrator.Orchestrator.set_idle_deadline_stream`
  to pure :func:`repro.faults.hashed_uniform` draws keyed by instance id,
  consuming nothing from the shared RNG.  With traffic off, no shared-RNG
  draw order changes anywhere — the golden traces stay byte-identical.

The engine is *open-loop*: schedules are fixed ahead of time and scale
operations never sleep the shared clock (``sleep_startup=False``), so a
background cold start does not stall the foreground.  Demand the platform
rejects (:class:`~repro.errors.NoCapacityError` under extreme
utilization) is dropped and counted, not retried.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.cloud.accounts import Account
from repro.cloud.orchestrator import Orchestrator
from repro.cloud.services import CONTAINER_SIZES, Service, ServiceConfig
from repro.cloud.workloads import (
    ConstantLoad,
    DiurnalLoad,
    PoissonLoad,
    RequestPattern,
    TraceLoad,
)
from repro.errors import CloudError, LaunchError, NoCapacityError
from repro.faults import hashed_uniform
from repro.simtime.scheduler import ScheduledEvent
from repro.telemetry import current_telemetry

#: Pattern kinds a tenant may be assigned, in weight order.
PATTERN_KINDS = ("constant", "diurnal", "bursty", "poisson")


def _tenant_seed(seed: int, name: str) -> int:
    """Per-tenant generator seed, hashed so tenants are independent."""
    return int(hashed_uniform(seed, "traffic-tenant", name) * 2**63)


def _idle_stream(seed: int, instance_id: str) -> float:
    """The population's idle-deadline stream (module-level + partial, not a
    closure, so orchestrator state stays picklable for world snapshots)."""
    return hashed_uniform(seed, "traffic-idle", instance_id)


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of one background-tenant population.

    Attributes
    ----------
    n_tenants:
        Number of background services (one service per tenant account).
    seed:
        Master seed; every configuration and schedule draw derives from it.
    duration_s:
        How long evaluation events keep firing after :meth:`start`.
    evaluation_period_s:
        Per-tenant autoscale cadence.
    mean_concurrency:
        Mean *instance-level* demand per tenant; individual tenants draw a
        mean in ``[0.5, 1.5]`` of this.
    pattern_weights:
        Sampling weights over :data:`PATTERN_KINDS`.
    concurrency_choices:
        Per-instance request concurrency options (the paper pins the
        victim's to 1; background services are under no such constraint).
    size_names / size_weights:
        Container-size mix (:data:`~repro.cloud.services.CONTAINER_SIZES`).
    max_instances:
        Per-tenant autoscale cap.
    phase_groups:
        Distinct evaluation phases within one period.  Tenants in the
        same group are evaluated by one batched event.
    """

    n_tenants: int = 200
    seed: int = 0
    duration_s: float = 2 * units.HOUR
    evaluation_period_s: float = 15.0
    mean_concurrency: float = 2.0
    pattern_weights: tuple[float, ...] = (0.15, 0.35, 0.25, 0.25)
    concurrency_choices: tuple[int, ...] = (1, 2, 4)
    size_names: tuple[str, ...] = ("Pico", "Small", "Medium")
    size_weights: tuple[float, ...] = (0.30, 0.55, 0.15)
    max_instances: int = 20
    phase_groups: int = 15

    def __post_init__(self) -> None:
        if self.n_tenants < 0:
            raise CloudError(f"n_tenants must be >= 0, got {self.n_tenants}")
        if self.duration_s <= 0:
            raise CloudError(f"duration_s must be positive, got {self.duration_s}")
        if self.evaluation_period_s <= 0:
            raise CloudError(
                f"evaluation_period_s must be positive, got {self.evaluation_period_s}"
            )
        if len(self.pattern_weights) != len(PATTERN_KINDS):
            raise CloudError(
                f"pattern_weights needs {len(PATTERN_KINDS)} entries "
                f"(one per {PATTERN_KINDS}), got {len(self.pattern_weights)}"
            )
        if len(self.size_names) != len(self.size_weights):
            raise CloudError("size_names and size_weights must have equal length")
        for name in self.size_names:
            if name not in CONTAINER_SIZES:
                raise CloudError(f"unknown container size {name!r}")
        if not 1 <= self.phase_groups:
            raise CloudError(f"phase_groups must be >= 1, got {self.phase_groups}")
        if self.max_instances < 1:
            raise CloudError(f"max_instances must be >= 1, got {self.max_instances}")


@dataclass(frozen=True)
class TenantSpec:
    """One generated background tenant."""

    index: int
    account_id: str
    kind: str
    size: str
    concurrency: int
    phase_s: float

    @property
    def service_name(self) -> str:
        return "svc"


class TenantPopulation:
    """Batch-generated tenants with precomputed demand schedules.

    ``demand[i, k]`` is tenant ``i``'s request concurrency at its ``k``-th
    evaluation slot (nominal time ``phase_s + k * evaluation_period_s``)
    and ``targets[i, k]`` the resulting instance target,
    ``ceil(demand / concurrency)`` clamped to ``max_instances`` — the same
    arithmetic as :meth:`~repro.cloud.services.ServiceConfig.target_for`.
    Both are ``(n_tenants, n_slots)`` int64 matrices, built by one
    vectorized ``concurrency_series`` call per tenant at generation time.
    """

    def __init__(
        self,
        config: TrafficConfig,
        specs: list[TenantSpec],
        patterns: list[RequestPattern],
        demand: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        self.config = config
        self.specs = specs
        self.patterns = patterns
        self.demand = demand
        self.targets = targets

    @property
    def n_tenants(self) -> int:
        return len(self.specs)

    @property
    def n_slots(self) -> int:
        return int(self.targets.shape[1])

    @classmethod
    def generate(cls, config: TrafficConfig) -> "TenantPopulation":
        """Sample a population (a few array draws, then one series per
        tenant — no per-tick work)."""
        n = config.n_tenants
        period = config.evaluation_period_s
        n_slots = int(math.floor(config.duration_s / period + 1e-9)) + 1

        rng = np.random.default_rng(_tenant_seed(config.seed, "population"))
        pattern_p = np.asarray(config.pattern_weights, dtype=np.float64)
        pattern_p = pattern_p / pattern_p.sum()
        kinds = rng.choice(len(PATTERN_KINDS), size=n, p=pattern_p)
        size_p = np.asarray(config.size_weights, dtype=np.float64)
        size_p = size_p / size_p.sum()
        sizes = rng.choice(len(config.size_names), size=n, p=size_p)
        concurrency = rng.choice(
            np.asarray(config.concurrency_choices, dtype=np.int64), size=n
        )
        means = rng.uniform(0.5, 1.5, size=n) * config.mean_concurrency
        phases = (
            rng.integers(0, config.phase_groups, size=n)
            * (period / config.phase_groups)
        )
        diurnal_periods = rng.uniform(2 * units.HOUR, 26 * units.HOUR, size=n)
        diurnal_phases = rng.uniform(0.0, 1.0, size=n) * diurnal_periods

        specs: list[TenantSpec] = []
        patterns: list[RequestPattern] = []
        demand = np.zeros((n, n_slots), dtype=np.int64)
        slots = np.arange(n_slots, dtype=np.float64) * period
        # Poisson demand is held for a minute's worth of slots so targets
        # wander instead of flapping on every evaluation.
        hold = max(1, int(round(60.0 / period)))
        held_slots = slots[::hold]

        for i in range(n):
            spec = TenantSpec(
                index=i,
                account_id=f"bg-{i:05d}",
                kind=PATTERN_KINDS[int(kinds[i])],
                size=config.size_names[int(sizes[i])],
                concurrency=int(concurrency[i]),
                phase_s=float(phases[i]),
            )
            # Request-level mean: instance-level mean times the per-instance
            # concurrency, so the expected instance target is size-invariant.
            mean = float(means[i]) * spec.concurrency
            tenant_rng = np.random.default_rng(
                _tenant_seed(config.seed, spec.account_id)
            )
            pattern = _build_pattern(
                spec.kind, mean, tenant_rng,
                duration_s=config.duration_s,
                diurnal_period_s=float(diurnal_periods[i]),
                diurnal_phase_s=float(diurnal_phases[i]),
            )
            if spec.kind == "poisson":
                series = np.repeat(
                    pattern.concurrency_series(held_slots), hold
                )[:n_slots]
            else:
                series = pattern.concurrency_series(slots + spec.phase_s)
            demand[i] = series
            specs.append(spec)
            patterns.append(pattern)

        conc = np.asarray([s.concurrency for s in specs], dtype=np.int64)
        if n:
            targets = np.minimum(
                -(-demand // conc[:, None]),  # ceil division
                config.max_instances,
            )
        else:
            targets = np.zeros((0, n_slots), dtype=np.int64)
        return cls(config, specs, patterns, demand, targets)


def _build_pattern(
    kind: str,
    mean: float,
    rng: np.random.Generator,
    *,
    duration_s: float,
    diurnal_period_s: float,
    diurnal_phase_s: float,
) -> RequestPattern:
    """One tenant's request pattern, reusing the workloads.py models."""
    if kind == "constant":
        return ConstantLoad(max(0, int(round(mean))))
    if kind == "diurnal":
        trough = int(round(0.25 * mean))
        peak = max(trough, int(round(1.75 * mean)))
        return DiurnalLoad(
            trough=trough,
            peak=peak,
            period_s=diurnal_period_s,
            phase_s=diurnal_phase_s,
        )
    if kind == "bursty":
        return TraceLoad.bursty(
            duration_s=duration_s + units.MINUTE,
            step_s=units.MINUTE,
            base=max(1, int(round(mean))),
            rng=rng,
        )
    if kind == "poisson":
        return PoissonLoad(arrivals_per_s=mean / 10.0, service_time_s=10.0, rng=rng)
    raise CloudError(f"unknown pattern kind {kind!r}")


@dataclass
class TrafficStats:
    """Driver-side counters (the telemetry ``traffic.*`` counters mirror
    these when a telemetry handle is installed)."""

    evaluations: int = 0
    requests: int = 0
    scale_outs: int = 0
    scale_ins: int = 0
    rejected: int = 0


@dataclass
class _PhaseGroup:
    """Tenants sharing an evaluation phase, driven by one event chain."""

    phase_s: float
    tenants: np.ndarray
    event: ScheduledEvent | None = None
    next_slot: int = 0


@dataclass
class BackgroundDriver:
    """Event-driven autoscaling of a whole tenant population.

    Construction is cheap; :meth:`start` deploys every tenant service and
    registers the per-phase evaluation events.  From then on the tenants
    live entirely inside the scheduler: any ``clock.sleep`` — the
    attacker's launches, CTest windows, probe waits — drains whichever
    evaluations came due, exactly once each, in ``(when, registration)``
    order.
    """

    orchestrator: Orchestrator
    population: TenantPopulation
    stats: TrafficStats = field(default_factory=TrafficStats)

    def __post_init__(self) -> None:
        self._services: list[Service] = []
        self._state_idx = np.zeros(self.population.n_tenants, dtype=np.int64)
        self._last_record = np.full(self.population.n_tenants, -np.inf)
        self._groups: list[_PhaseGroup] = []
        self._t0 = 0.0
        self._started = False
        profile = self.orchestrator.datacenter.profile
        # Steady tenants refresh their demand history at half the hotness
        # window so is_hot still sees them without per-slot scale calls.
        self._refresh_s = profile.hot_window / 2.0

    @property
    def started(self) -> bool:
        return self._started

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Deploy the population and begin open-loop evaluation."""
        if self._started:
            raise CloudError("background driver already started")
        self._started = True
        orch = self.orchestrator
        config = self.population.config
        idle_stream = functools.partial(_idle_stream, config.seed)

        for spec in self.population.specs:
            orch.register_account(Account(spec.account_id))
            service = orch.deploy_service(
                spec.account_id,
                ServiceConfig(
                    name=spec.service_name,
                    size=CONTAINER_SIZES[spec.size],
                    max_instances=config.max_instances,
                    concurrency=spec.concurrency,
                ),
            )
            orch.set_idle_deadline_stream(service, idle_stream)
            self._state_idx[spec.index] = orch.instance_store.index_of(
                service.qualified_name
            )
            self._services.append(service)

        self._t0 = orch.clock.now()
        by_phase: dict[float, list[int]] = {}
        for spec in self.population.specs:
            by_phase.setdefault(spec.phase_s, []).append(spec.index)
        for phase in sorted(by_phase):
            group = _PhaseGroup(
                phase_s=phase,
                tenants=np.asarray(by_phase[phase], dtype=np.int64),
            )
            self._groups.append(group)
            self._schedule(group)

    def stop(self) -> None:
        """Cancel all pending evaluation events (instances stay up)."""
        for group in self._groups:
            if group.event is not None:
                group.event.cancel()
                group.event = None

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _schedule(self, group: _PhaseGroup) -> None:
        when = self._t0 + group.phase_s + group.next_slot * (
            self.population.config.evaluation_period_s
        )
        in_horizon = (
            group.next_slot < self.population.n_slots
            and when - self._t0 <= self.population.config.duration_s
        )
        if not in_horizon:
            group.event = None
            return
        # A partial of the bound method (not a lambda) keeps the pending
        # event picklable for world snapshots.
        group.event = self.orchestrator.scheduler.call_at(
            when, functools.partial(self._evaluate, group)
        )

    def _evaluate(self, group: _PhaseGroup) -> None:
        slot = group.next_slot
        tenants = group.tenants
        now = self.orchestrator.clock.now()
        telemetry = current_telemetry()

        targets = self.population.targets[tenants, slot]
        demand = self.population.demand[tenants, slot]
        active = self.orchestrator.instance_store.active_for(
            self._state_idx[tenants]
        )
        requested = int(demand.sum())
        telemetry.count("traffic.evaluations", int(tenants.size))
        telemetry.count("traffic.requests", requested)
        self.stats.evaluations += int(tenants.size)
        self.stats.requests += requested

        for pos in np.flatnonzero(targets != active):
            tenant = int(tenants[pos])
            target = int(targets[pos])
            try:
                self.orchestrator.scale_to_count(
                    self._services[tenant], target, sleep_startup=False
                )
            except (NoCapacityError, LaunchError):
                # Open loop: unservable demand is dropped, not retried.
                self.stats.rejected += 1
                telemetry.count("traffic.rejected_scales")
                continue
            if target > int(active[pos]):
                self.stats.scale_outs += 1
            else:
                self.stats.scale_ins += 1
            self._last_record[tenant] = now

        stale = (
            (targets == active)
            & (targets > 0)
            & (now - self._last_record[tenants] >= self._refresh_s)
        )
        for pos in np.flatnonzero(stale):
            tenant = int(tenants[pos])
            self.orchestrator.note_demand(
                self._services[tenant], int(targets[pos])
            )
            self._last_record[tenant] = now

        group.next_slot = slot + 1
        self._schedule(group)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of serving-pool capacity slots currently committed."""
        fleet = self.orchestrator.fleet
        pool = fleet.pool_order
        capacity = float(fleet.capacity_slots[pool].sum())
        if capacity <= 0.0:
            return 0.0
        return float(fleet.load_slots[pool].sum()) / capacity

    def background_instances(self) -> int:
        """Alive background instances across the whole population."""
        store = self.orchestrator.instance_store
        return sum(
            store.alive_count(int(idx))
            for idx in self._state_idx[: len(self._services)]
        )

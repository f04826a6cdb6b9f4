"""Attack coverage vs. background utilization (live-region extension).

Every paper experiment ran against a quiet region; this driver measures
what tenant load does to the attacker.  Each cell brings up a region with
a :class:`~repro.cloud.traffic.TrafficConfig` population autoscaling in
the background, lets it reach steady state, then runs the optimized
co-location attack against a victim and oracle-scores coverage exactly
like the coverage matrix (:func:`~repro.experiments.base.host_coverage`).
Sweeping the tenant count maps out coverage as a function of serving-pool
utilization: contended capacity on the victim's shard blocks attacker
placements there, so coverage degrades as the region fills.

The sweep runs on the small ``test-region1`` profile so that realistic
tenant counts (hundreds, not hundreds of thousands) span the utilization
range where capacity effects bite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.cloud.services import ServiceConfig
from repro.cloud.traffic import TrafficConfig
from repro.errors import NoCapacityError
from repro.core.attack.strategies import optimized_launch
from repro.analysis.asciichart import render_series
from repro.experiments.base import default_env, host_coverage
from repro.experiments.report import format_series, pct
from repro.experiments.spec import Band, FigureSpec
from repro.runner import CellSpec, EnvSpec, RunnerConfig, run_cells
from repro.telemetry import current_telemetry


@dataclass(frozen=True)
class BackgroundLoadConfig:
    """One coverage-vs-utilization sweep."""

    region: str = "test-region1"
    #: Spans quiet (~0%), loaded (~40%/~80%), and saturated (~90%/~97%)
    #: serving-pool utilization on ``test-region1``'s 6400-slot pool.
    tenant_counts: tuple[int, ...] = (0, 450, 900, 1000, 1100)
    mean_concurrency: float = 4.0
    #: Background steady-state time before the attack begins.
    warmup_s: float = 10 * units.MINUTE
    n_services: int = 3
    launches: int = 3
    instances_per_service: int = 16
    interval_s: float = 10 * units.MINUTE
    n_victim_instances: int = 30
    repetitions: int = 2
    base_seed: int = 900


@dataclass
class LoadPoint:
    """Aggregated outcomes of all repetitions at one tenant count."""

    n_tenants: int
    utilization: list[float] = field(default_factory=list)
    coverage: list[float] = field(default_factory=list)
    attacker_hosts: list[int] = field(default_factory=list)
    background_instances: list[int] = field(default_factory=list)
    rejected: int = 0
    attack_failures: int = 0

    @property
    def mean_utilization(self) -> float:
        return float(np.mean(self.utilization)) if self.utilization else 0.0

    @property
    def mean_coverage(self) -> float:
        return float(np.mean(self.coverage)) if self.coverage else 0.0

    @property
    def mean_attacker_hosts(self) -> float:
        return float(np.mean(self.attacker_hosts)) if self.attacker_hosts else 0.0

    @property
    def mean_background_instances(self) -> float:
        return (
            float(np.mean(self.background_instances))
            if self.background_instances
            else 0.0
        )


@dataclass
class BackgroundLoadSummary:
    """Sweep result: one :class:`LoadPoint` per tenant count."""

    points: list[LoadPoint] = field(default_factory=list)


def _pool_utilization(env) -> float:
    """Committed fraction of serving-pool capacity (works traffic-off)."""
    fleet = env.datacenter.fleet
    pool = fleet.pool_order
    capacity = float(fleet.capacity_slots[pool].sum())
    if capacity <= 0.0:
        return 0.0
    return float(fleet.load_slots[pool].sum()) / capacity


def _cell_traffic(params: dict, seed: int) -> TrafficConfig | None:
    """The cell's background population (``None`` for a quiet region).

    Shared by the cell body and the declared
    :class:`~repro.runner.EnvSpec` so the warm-world identity always
    matches what the cell actually builds.
    """
    n_tenants = params["n_tenants"]
    if not n_tenants:
        return None
    # Keep traffic flowing through warmup plus the whole attack window.
    attack_budget = (params["launches"] + 1) * params["interval_s"]
    return TrafficConfig(
        n_tenants=n_tenants,
        seed=seed + 1_000_003,
        duration_s=params["warmup_s"] + attack_budget,
        mean_concurrency=params["mean_concurrency"],
    )


def _load_cell(params: dict, seed: int) -> dict:
    """One live-region attack; returns raw oracle-scored metrics."""
    traffic = _cell_traffic(params, seed)
    env = default_env(region=params["region"], seed=seed, background=traffic)
    env.clock.sleep(params["warmup_s"])
    utilization = _pool_utilization(env)

    # At high utilization the attack itself can be capacity-blocked: the
    # placement policy runs out of hosts with free slots on the attacker's
    # shard.  That is a *measurement*, not a cell failure — a full region
    # defeats the attack — so score it as zero coverage.
    attack_failed = False
    cost_usd = 0.0
    coverage = 0.0
    attacker_hosts = 0
    try:
        outcome = optimized_launch(
            env.attacker,
            n_services=params["n_services"],
            launches=params["launches"],
            instances_per_service=params["instances_per_service"],
            interval_s=params["interval_s"],
        )
        cost_usd = outcome.cost_usd
        victim = env.victim("account-2")
        victim.deploy(ServiceConfig(name="victim"))
        victim_handles = victim.connect("victim", params["n_victim_instances"])
        coverage, attacker_hosts = host_coverage(env, outcome.handles, victim_handles)
    except NoCapacityError:
        attack_failed = True

    background_instances = 0
    rejected = 0
    if env.background is not None:
        background_instances = env.background.background_instances()
        rejected = env.background.stats.rejected
        env.background.stop()
    env.close()
    return {
        "utilization": utilization,
        "coverage": coverage,
        "attacker_hosts": attacker_hosts,
        "background_instances": background_instances,
        "rejected": rejected,
        "attack_failed": attack_failed,
        "cost_usd": cost_usd,
    }


def _cell_params(config: BackgroundLoadConfig, n_tenants: int) -> dict:
    return {
        "region": config.region,
        "n_tenants": n_tenants,
        "mean_concurrency": config.mean_concurrency,
        "warmup_s": config.warmup_s,
        "n_services": config.n_services,
        "launches": config.launches,
        "instances_per_service": config.instances_per_service,
        "interval_s": config.interval_s,
        "n_victim_instances": config.n_victim_instances,
    }


def run(
    config: BackgroundLoadConfig = BackgroundLoadConfig(),
    runner: RunnerConfig | None = None,
) -> BackgroundLoadSummary:
    """Run the tenant-count sweep; every repetition is an independent cell."""
    specs = [
        CellSpec(
            experiment="background-load",
            fn=_load_cell,
            config=params,
            seed=config.base_seed + rep,
            label=f"tenants-{n_tenants}/rep{rep}",
            # Worlds are distinct per (tenant count, rep), so no later
            # cell of the sweep declares a cell's world and the runner
            # captures none of them: a world is snapshotted only for a
            # later cell of the same run that declares it.
            env=EnvSpec(
                region=config.region,
                seed=config.base_seed + rep,
                background=_cell_traffic(params, config.base_seed + rep),
            ),
        )
        for n_tenants in config.tenant_counts
        for params in (_cell_params(config, n_tenants),)
        for rep in range(config.repetitions)
    ]
    with current_telemetry().span(
        "background_load.sweep",
        cells=len(specs),
        tenants=list(config.tenant_counts),
    ):
        results = run_cells(specs, runner)

    summary = BackgroundLoadSummary()
    cursor = 0
    for n_tenants in config.tenant_counts:
        point = LoadPoint(n_tenants=n_tenants)
        for result in results[cursor : cursor + config.repetitions]:
            value = result.value
            point.utilization.append(value["utilization"])
            point.coverage.append(value["coverage"])
            point.attacker_hosts.append(value["attacker_hosts"])
            point.background_instances.append(value["background_instances"])
            point.rejected += value["rejected"]
            point.attack_failures += int(value["attack_failed"])
        cursor += config.repetitions
        summary.points.append(point)
    return summary


def _render(summary: BackgroundLoadSummary, config: BackgroundLoadConfig) -> str:
    table = format_series(
        "Background load — attack coverage vs region utilization (extension)",
        ("tenants", "utilization", "coverage", "attacker_hosts", "bg_instances", "blocked"),
        [
            (
                p.n_tenants,
                pct(p.mean_utilization),
                pct(p.mean_coverage),
                p.mean_attacker_hosts,
                int(p.mean_background_instances),
                p.attack_failures,
            )
            for p in summary.points
        ],
    )
    chart = render_series(
        [100 * p.mean_utilization for p in summary.points],
        [100 * p.mean_coverage for p in summary.points],
        title="coverage (%) vs pool utilization (%)",
        x_label="utilization %",
        y_label="coverage %",
    )
    return table + "\n\n" + chart


BACKGROUND_LOAD = FigureSpec(
    id="background_load", description="attack coverage vs background load (extension)",
    quick=BackgroundLoadConfig(tenant_counts=(0, 900, 1100), repetitions=2),
    full=BackgroundLoadConfig(tenant_counts=(0, 450, 900, 1000, 1100), repetitions=3),
    driver=run, render=_render,
    bands=(
        Band("largest tenant count saturates the pool (> 85%)", "extension: a full region",
             lambda s: s.points[-1].mean_utilization > 0.85),
        Band("saturation costs >= 0.2 coverage vs a quiet region",
             "extension: contended capacity blocks placement",
             lambda s: s.points[0].mean_coverage - s.points[-1].mean_coverage >= 0.2),
    ),
)

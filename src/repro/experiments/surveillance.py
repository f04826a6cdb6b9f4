"""All-day surveillance: sustained co-location against a live victim.

The paper's evaluation measures co-location at a single instant.  Real
victims breathe with their traffic and the platform reaps idle attacker
instances within ~12 minutes, so monitoring a victim for a whole day needs
a keep-alive loop: the attacker reconnects its released fleet for a
one-second blip every refresh period, inside the idle grace.  This experiment
primes the attacker once, then tracks victim-instance coverage hour by hour
while the victim's diurnal traffic scales its fleet up and down — and
accounts the full-day bill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.cloud.services import ServiceConfig
from repro.cloud.workloads import DiurnalLoad
from repro.core.attack.strategies import optimized_launch
from repro.experiments.base import default_env
from repro.experiments.report import ComparisonRow, format_comparison, format_series, pct
from repro.experiments.spec import Band, FigureSpec


@dataclass(frozen=True)
class SurveillanceConfig:
    """Configuration for the all-day surveillance experiment."""

    region: str = "us-east1"
    duration_hours: float = 24.0
    sample_every_hours: float = 1.0
    victim_trough: int = 10
    victim_peak: int = 100
    refresh_period_s: float = 100.0
    seed: int = 1100


@dataclass
class SurveillanceResult:
    """Hour-by-hour coverage plus the day's bill."""

    #: ``(hour, victim_instances, coverage)`` samples.
    series: list[tuple[float, int, float]] = field(default_factory=list)
    setup_cost_usd: float = 0.0
    maintenance_cost_usd: float = 0.0

    @property
    def min_coverage(self) -> float:
        return min(c for _h, _n, c in self.series)

    @property
    def mean_coverage(self) -> float:
        return sum(c for _h, _n, c in self.series) / len(self.series)

    @property
    def total_cost_usd(self) -> float:
        return self.setup_cost_usd + self.maintenance_cost_usd


def run(config: SurveillanceConfig = SurveillanceConfig()) -> SurveillanceResult:
    """Run the surveillance experiment (oracle-scored for speed)."""
    env = default_env(config.region, seed=config.seed)
    attacker = env.attacker
    victim = env.victim("account-2")
    orchestrator = env.orchestrator

    outcome = optimized_launch(attacker)
    # Release the fleet to idle; keep-alive blips keep it alive cheaply.
    for name in outcome.service_names:
        attacker.disconnect(name)

    victim_service = orchestrator.deploy_service(
        "account-2",
        ServiceConfig(name="victim-diurnal", max_instances=2 * config.victim_peak),
    )
    load = DiurnalLoad(
        trough=config.victim_trough,
        peak=config.victim_peak,
        period_s=config.duration_hours * units.HOUR,
    )

    result = SurveillanceResult(setup_cost_usd=outcome.cost_usd)
    maintenance_cost = 0.0
    start = attacker.now()
    attacker_services = [
        orchestrator.services[f"{attacker.account_id}/{name}"]
        for name in outcome.service_names
    ]
    hours_done = 0.0
    while hours_done < config.duration_hours:
        window_h = min(config.sample_every_hours, config.duration_hours - hours_done)
        window_end = attacker.now() + window_h * units.HOUR
        # Victim autoscaling and attacker keep-alive interleave on the
        # refresh cadence.
        while attacker.now() < window_end:
            tick_start = attacker.now()
            target = victim_service.config.target_for(
                load.concurrency_at(tick_start - start)
            )
            orchestrator.scale_to(victim_service, target)
            cost_before = attacker.cost_usd
            for name in outcome.service_names:
                attacker.connect(name, 800)
                attacker.wait(1.0)
                attacker.disconnect(name)
            maintenance_cost += attacker.cost_usd - cost_before
            next_tick = tick_start + config.refresh_period_s
            attacker.wait(max(0.0, next_tick - attacker.now()))
        hours_done += window_h

        attacker_hosts = {
            instance.host_id
            for service in attacker_services
            for instance in orchestrator.alive_instances(service)
        }
        victims = orchestrator.alive_instances(victim_service)
        covered = sum(1 for i in victims if i.host_id in attacker_hosts)
        coverage = covered / len(victims) if victims else 0.0
        result.series.append((hours_done, len(victims), coverage))

    result.maintenance_cost_usd = maintenance_cost
    return result


def _render(result: SurveillanceResult, config: SurveillanceConfig) -> str:
    body = format_series(
        "Surveillance — sustained coverage of an autoscaling victim",
        ("hour", "victim_instances", "coverage"),
        result.series,
    )
    tail = format_comparison(
        "Surveillance — cost",
        [
            ComparisonRow("setup", "-", f"${result.setup_cost_usd:.2f}"),
            ComparisonRow(
                "maintenance",
                "-",
                f"${result.maintenance_cost_usd:.2f} over "
                f"{config.duration_hours:.0f} h",
            ),
            ComparisonRow("minimum coverage", "-", pct(result.min_coverage)),
        ],
    )
    return body + "\n\n" + tail


#: Staying connected to 4,800 Small instances for an hour (USD).
_ALWAYS_ON_PER_HOUR = 4800 * 3600 * (0.000024 + 0.512 * 0.0000025)


def _maintenance_per_hour(result: SurveillanceResult) -> float:
    hours = result.series[-1][0]
    return result.maintenance_cost_usd / hours


SURVEILLANCE = FigureSpec(
    id="surveillance",
    description="sustained co-location over one diurnal cycle (6 h quick, 12 h full; extension)",
    quick=SurveillanceConfig(duration_hours=6.0),
    full=SurveillanceConfig(duration_hours=12.0),
    driver=run, render=_render,
    bands=(
        Band("minimum hourly coverage > 90%", "extension: coverage survives scaling",
             lambda r: r.min_coverage > 0.9),
        Band("mean coverage > 95%", "extension: coverage survives scaling",
             lambda r: r.mean_coverage > 0.95),
        Band("victim fleet peak >= 2x its trough", "diurnal victim",
             lambda r: max(n for _h, n, _c in r.series) >= 2 * min(n for _h, n, _c in r.series)),
        Band("keep-alive < 1/20 of staying connected", "idle time is free (§5.2)",
             lambda r: _maintenance_per_hour(r) < _ALWAYS_ON_PER_HOUR / 20),
    ),
)

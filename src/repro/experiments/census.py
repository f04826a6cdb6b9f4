"""Figure 12 and §5.2: estimating the scale of the FaaS clusters.

Deploy eight services from each of the three accounts and prime all 24 with
optimized launches; the cumulative number of unique apparent hosts estimates
the cluster size, and the attacker's at-once footprint over that estimate is
the attacker's datacenter coverage.

Paper reference: 474 apparent hosts in us-east1, 1702 in us-central1, 199
in us-west1; the attacker covers 59% / 53% / 82% of them, peaking at 904
simultaneously occupied hosts in us-central1 for ~23 USD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.core.attack.census import CensusResult, estimate_cluster_size
from repro.core.attack.strategies import optimized_launch
from repro.experiments.base import VICTIM_ACCOUNTS, default_env
from repro.experiments.report import ComparisonRow, format_comparison
from repro.experiments.spec import Band, FigureSpec
from repro.runner import CellSpec, RunnerConfig, run_cells

PAPER_CENSUS = {"us-east1": 474, "us-central1": 1702, "us-west1": 199}
PAPER_ATTACKER_SHARE = {"us-east1": 0.59, "us-central1": 0.53, "us-west1": 0.82}
PAPER_MAX_HOSTS_AT_ONCE = 904


@dataclass(frozen=True)
class CensusConfig:
    """Configuration for the Fig. 12 census."""

    regions: tuple[str, ...] = ("us-east1", "us-central1", "us-west1")
    services_per_account: int = 8
    launches_per_service: int = 4
    instances_per_launch: int = 800
    interval: float = 10 * units.MINUTE
    base_seed: int = 700


@dataclass
class RegionCensus:
    """Census outcome for one region."""

    region: str
    census: CensusResult
    attacker_hosts_at_once: int
    attacker_cost_usd: float

    @property
    def total_hosts(self) -> int:
        return self.census.total_unique

    @property
    def attacker_share(self) -> float:
        """Fraction of the census the attacker occupied at once."""
        return self.attacker_hosts_at_once / self.total_hosts

    @property
    def growth_flattens(self) -> bool:
        """True when late launches discover far fewer hosts than early ones."""
        cumulative = self.census.cumulative_unique
        third = max(1, len(cumulative) // 3)
        early = cumulative[third] - cumulative[0]
        late = cumulative[-1] - cumulative[-third - 1]
        return late < early


@dataclass
class CensusSummary:
    """Census outcomes for every region."""

    regions: list[RegionCensus] = field(default_factory=list)

    def by_region(self, region: str) -> RegionCensus:
        """Look up one region's census (KeyError if absent)."""
        for entry in self.regions:
            if entry.region == region:
                return entry
        raise KeyError(region)


def _region_cell(params: dict, seed: int) -> RegionCensus:
    """One Fig. 12 cell: census one region, then measure the footprint."""
    region = params["region"]
    env = default_env(region, seed=seed)
    census = estimate_cluster_size(
        [env.attacker] + [env.victim(a) for a in VICTIM_ACCOUNTS],
        services_per_account=params["services_per_account"],
        launches_per_service=params["launches_per_service"],
        instances_per_launch=params["instances_per_launch"],
        interval_s=params["interval"],
    )
    # Free the census world before building the attack world.
    env.close()
    del env
    # Attacker footprint at once: a fresh standard optimized attack in
    # the same region (fresh environment keeps the census unbiased).
    attack_env = default_env(region, seed=seed + 50)
    outcome = optimized_launch(attack_env.attacker)
    attack_env.close()
    return RegionCensus(
        region=region,
        census=census,
        attacker_hosts_at_once=len(outcome.apparent_hosts),
        attacker_cost_usd=outcome.cost_usd,
    )


def run(
    config: CensusConfig = CensusConfig(),
    runner: RunnerConfig | None = None,
) -> CensusSummary:
    """Run the census in each region, then measure the attacker footprint."""
    specs = [
        CellSpec(
            experiment="fig12",
            fn=_region_cell,
            config={
                "region": region,
                "services_per_account": config.services_per_account,
                "launches_per_service": config.launches_per_service,
                "instances_per_launch": config.instances_per_launch,
                "interval": config.interval,
            },
            seed=config.base_seed + idx,
            label=region,
        )
        for idx, region in enumerate(config.regions)
    ]
    summary = CensusSummary()
    summary.regions.extend(cell.value for cell in run_cells(specs, runner))
    return summary


def _render(summary: CensusSummary, config: CensusConfig) -> str:
    rows = []
    for region in summary.regions:
        rows.append(
            ComparisonRow(
                f"{region.region}: census / attacker share",
                f"{PAPER_CENSUS[region.region]} / "
                f"{100 * PAPER_ATTACKER_SHARE[region.region]:.0f}%",
                f"{region.total_hosts} / {100 * region.attacker_share:.0f}%",
            )
        )
    return format_comparison("Figure 12 — datacenter census", rows)


def _hosts(summary: CensusSummary, region: str) -> int:
    return summary.by_region(region).total_hosts


def _census_error(region: RegionCensus) -> float:
    """Relative distance of a region's census from the paper's."""
    paper = PAPER_CENSUS[region.region]
    return abs(region.total_hosts - paper) / paper


FIG12 = FigureSpec(
    id="fig12", description="datacenter census",
    quick=CensusConfig(regions=("us-west1",)),
    full=CensusConfig(),
    driver=run, render=_render,
    bands=(
        Band("us-central1 > 3x us-east1", "1702 vs 474",
             lambda s: _hosts(s, "us-central1") > 3 * _hosts(s, "us-east1"), full_only=True),
        Band("us-east1 > 1.5x us-west1", "474 vs 199",
             lambda s: _hosts(s, "us-east1") > 1.5 * _hosts(s, "us-west1"), full_only=True),
        Band("census within 25% of the paper, every region", "474 / 1702 / 199",
             lambda s: all(_census_error(r) < 0.25 for r in s.regions)),
        Band("growth flattens, every region", "flattening",
             lambda s: all(r.growth_flattens for r in s.regions)),
        Band("attacker share in (0.4, 1.1], every region", "59% / 53% / 82%",
             lambda s: all(0.4 < r.attacker_share <= 1.1 for r in s.regions)),
        Band("us-central1 hosts at once within 200 of the paper", f"{PAPER_MAX_HOSTS_AT_ONCE}",
             lambda s: abs(s.by_region("us-central1").attacker_hosts_at_once
                           - PAPER_MAX_HOSTS_AT_ONCE) < 200,
             full_only=True),
    ),
)

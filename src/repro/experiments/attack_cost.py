"""§5.2: financial cost of the optimized co-location attack.

The paper's configuration (six attacker services, six launches per service,
800 instances per launch, disconnecting between launches so only active time
bills) costs on average 24 / 23 / 27 USD in us-east1 / us-central1 /
us-west1.  This experiment measures our simulated bill with the published
pricing model, and ablates the two main knobs (services, launches).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.attack.strategies import optimized_launch
from repro.experiments.base import default_env
from repro.experiments.report import ComparisonRow, format_comparison
from repro.experiments.spec import Band, FigureSpec

PAPER_COST_USD = {"us-east1": 24.0, "us-central1": 23.0, "us-west1": 27.0}


@dataclass(frozen=True)
class AttackCostConfig:
    """Configuration for the attack-cost measurement."""

    regions: tuple[str, ...] = ("us-east1", "us-central1", "us-west1")
    repetitions: int = 3
    n_services: int = 6
    launches: int = 6
    instances: int = 800
    base_seed: int = 1000


@dataclass
class AttackCostResult:
    """Measured attack costs per region."""

    mean_cost_usd: dict[str, float] = field(default_factory=dict)
    mean_hosts: dict[str, float] = field(default_factory=dict)


def run(config: AttackCostConfig = AttackCostConfig()) -> AttackCostResult:
    """Measure the optimized strategy's bill in each region."""
    result = AttackCostResult()
    for region in config.regions:
        costs, hosts = [], []
        for rep in range(config.repetitions):
            env = default_env(region, seed=config.base_seed + rep)
            outcome = optimized_launch(
                env.attacker,
                n_services=config.n_services,
                launches=config.launches,
                instances_per_service=config.instances,
            )
            costs.append(outcome.cost_usd)
            hosts.append(len(outcome.apparent_hosts))
        result.mean_cost_usd[region] = float(np.mean(costs))
        result.mean_hosts[region] = float(np.mean(hosts))
    return result


@dataclass(frozen=True)
class AblationConfig:
    """Sweep of the strategy's knobs: cost vs. footprint trade-off."""

    region: str = "us-east1"
    services_grid: tuple[int, ...] = (1, 2, 4, 6)
    launches_grid: tuple[int, ...] = (2, 4, 6)
    instances: int = 800
    seed: int = 1010


def run_ablation(config: AblationConfig = AblationConfig()) -> dict[tuple[int, int], tuple[float, int]]:
    """Sweep (services, launches); returns (cost USD, apparent hosts)."""
    results: dict[tuple[int, int], tuple[float, int]] = {}
    for n_services in config.services_grid:
        for launches in config.launches_grid:
            env = default_env(config.region, seed=config.seed)
            outcome = optimized_launch(
                env.attacker,
                n_services=n_services,
                launches=launches,
                instances_per_service=config.instances,
            )
            results[(n_services, launches)] = (
                outcome.cost_usd,
                len(outcome.apparent_hosts),
            )
    return results


def _render(result: AttackCostResult, config: AttackCostConfig) -> str:
    return format_comparison(
        "§5.2 — optimized attack cost",
        [
            ComparisonRow(
                region, f"${PAPER_COST_USD[region]:.0f}",
                f"${result.mean_cost_usd[region]:.2f}",
            )
            for region in result.mean_cost_usd
        ],
    )


def _render_ablation(
    results: dict[tuple[int, int], tuple[float, int]], config: AblationConfig
) -> str:
    return format_comparison(
        "§5.2 ablation — (services, launches) -> cost / apparent hosts",
        [
            ComparisonRow(
                f"services={s}, launches={l}",
                "-",
                f"${cost:.2f} / {hosts} hosts",
            )
            for (s, l), (cost, hosts) in sorted(results.items())
        ],
    )


COST = FigureSpec(
    id="cost", description="attack cost per region",
    quick=AttackCostConfig(repetitions=1),
    full=AttackCostConfig(repetitions=2),  # paper: 3
    driver=run, render=_render,
    bands=(
        Band("within 2x of the paper, every region", "$24 / $23 / $27",
             lambda r: all(PAPER_COST_USD[region] / 2 < cost < PAPER_COST_USD[region] * 2
                           for region, cost in r.mean_cost_usd.items())),
        Band("< $60 in every region", "tens of dollars",
             lambda r: all(cost < 60 for cost in r.mean_cost_usd.values())),
    ),
)

COST_ABLATION = FigureSpec(
    id="cost_ablation", description="attack cost vs footprint over (services, launches)",
    quick=AblationConfig(services_grid=(1, 6), launches_grid=(2, 6)),
    full=AblationConfig(),
    driver=run_ablation, render=_render_ablation,
    bands=(
        Band("6 services cover more hosts than 1", "footprint grows with services",
             lambda r: r[(6, 6)][1] > r[(1, 6)][1]),
        Band("6 launches cover more hosts than 2", "footprint grows with launches",
             lambda r: r[(6, 6)][1] > r[(6, 2)][1]),
        Band("6x6 costs > 4x the 1x2 attack", "cost ~ services x launches",
             lambda r: r[(6, 6)][0] > 4 * r[(1, 2)][0]),
    ),
)

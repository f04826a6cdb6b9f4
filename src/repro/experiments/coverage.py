"""Figure 11 and §5.2: victim instance coverage of the launching strategies.

Runs attacker-vs-victim co-location campaigns across datacenters, victim
accounts, victim fleet sizes (Fig. 11a), victim container sizes (Fig. 11b),
strategies (naive vs. optimized), and execution environments (Gen 1/Gen 2).

Paper reference (optimized strategy, Gen 1, 100 Small victims):

=============  ==========  ==========
datacenter     Account 2   Account 3
=============  ==========  ==========
us-east1       97.7%       99.7%
us-central1    61.3%       90.0%
us-west1       100.0%      100.0%
=============  ==========  ==========

The naive strategy achieves zero coverage except Account 2 in us-west1
(100%) and Account 3 in us-central1 (81%).  Gen 2 numbers are slightly
lower (87.3/88.7, 40.7/75.3, 96.0/97.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.services import CONTAINER_SIZES, SMALL, ContainerSize
from repro.core.attack.campaign import ColocationCampaign
from repro.core.attack.strategies import naive_launch, optimized_launch
from repro.experiments.base import VICTIM_ACCOUNTS, default_env
from repro.experiments.report import format_series, pct
from repro.experiments.spec import Band, FigureSpec
from repro.runner import CellSpec, RunnerConfig, run_cells

PAPER_OPTIMIZED_GEN1 = {
    ("us-east1", "account-2"): 0.977,
    ("us-east1", "account-3"): 0.997,
    ("us-central1", "account-2"): 0.613,
    ("us-central1", "account-3"): 0.900,
    ("us-west1", "account-2"): 1.000,
    ("us-west1", "account-3"): 1.000,
}

PAPER_NAIVE_GEN1 = {
    ("us-east1", "account-2"): 0.0,
    ("us-east1", "account-3"): 0.0,
    ("us-central1", "account-2"): 0.0,
    ("us-central1", "account-3"): 0.81,
    ("us-west1", "account-2"): 1.0,
    ("us-west1", "account-3"): 0.0,
}

PAPER_OPTIMIZED_GEN2 = {
    ("us-east1", "account-2"): 0.873,
    ("us-east1", "account-3"): 0.887,
    ("us-central1", "account-2"): 0.407,
    ("us-central1", "account-3"): 0.753,
    ("us-west1", "account-2"): 0.960,
    ("us-west1", "account-3"): 0.973,
}


@dataclass(frozen=True)
class CoverageConfig:
    """One coverage measurement cell."""

    region: str = "us-east1"
    victim_account: str = "account-2"
    strategy: str = "optimized"
    generation: str = "gen1"
    n_victim_instances: int = 100
    victim_size: ContainerSize = SMALL
    attacker_services: int = 6
    attacker_launches: int = 6
    attacker_instances: int = 800
    repetitions: int = 3
    ground_truth: str = "covert"
    base_seed: int = 600


@dataclass
class CoverageCell:
    """Aggregated coverage for one (region, account, parameters) cell."""

    config: CoverageConfig
    coverages: list[float] = field(default_factory=list)
    attacker_hosts: list[int] = field(default_factory=list)
    costs_usd: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.coverages))

    @property
    def std(self) -> float:
        return float(np.std(self.coverages))

    @property
    def mean_cost_usd(self) -> float:
        return float(np.mean(self.costs_usd))

    @property
    def mean_attacker_hosts(self) -> float:
        return float(np.mean(self.attacker_hosts))


def _strategy_fn(config: CoverageConfig):
    if config.strategy == "optimized":
        return lambda client: optimized_launch(
            client,
            n_services=config.attacker_services,
            launches=config.attacker_launches,
            instances_per_service=config.attacker_instances,
            generation=config.generation,
        )
    if config.strategy == "naive":
        return lambda client: naive_launch(
            client,
            n_services=config.attacker_services,
            instances_per_service=config.attacker_instances,
            generation=config.generation,
        )
    raise ValueError(f"unknown strategy {config.strategy!r}")


def _cell_params(config: CoverageConfig) -> dict:
    """The fields one repetition depends on (sweep bookkeeping excluded).

    ``repetitions`` and ``base_seed`` are deliberately absent: the cell's
    identity is ``(these parameters, seed)``, so growing a sweep reuses the
    repetitions already cached.
    """
    return {
        "region": config.region,
        "victim_account": config.victim_account,
        "strategy": config.strategy,
        "generation": config.generation,
        "n_victim_instances": config.n_victim_instances,
        "victim_size": config.victim_size,
        "attacker_services": config.attacker_services,
        "attacker_launches": config.attacker_launches,
        "attacker_instances": config.attacker_instances,
        "ground_truth": config.ground_truth,
    }


def _rep_cell(params: dict, seed: int) -> tuple[float, int, float]:
    """One campaign repetition; returns ``(coverage, hosts, cost_usd)``."""
    config = CoverageConfig(repetitions=1, base_seed=seed, **params)
    # Co-location is verified only through the covert channel; the field
    # stays because the e2e benchmark passes it, and cell keys (which fault
    # plans hash) and its result digests include it.
    if config.ground_truth != "covert":
        raise ValueError(f"unknown ground truth {config.ground_truth!r}")
    env = default_env(config.region, seed=seed)
    campaign = ColocationCampaign(
        attacker=env.attacker,
        victim=env.victim(config.victim_account),
        strategy=_strategy_fn(config),
        generation=config.generation,
    )
    outcome = campaign.run(
        n_victim_instances=config.n_victim_instances,
        victim_size=config.victim_size,
    )
    env.close()
    return outcome.coverage, outcome.attacker_hosts, outcome.attacker_cost_usd


def _rep_specs(config: CoverageConfig, label: str = "") -> list[CellSpec]:
    """One CellSpec per repetition of the given coverage configuration."""
    params = _cell_params(config)
    return [
        CellSpec(
            experiment="coverage",
            fn=_rep_cell,
            config=params,
            seed=config.base_seed + rep,
            label=label or f"{config.region}/{config.victim_account}/rep{rep}",
        )
        for rep in range(config.repetitions)
    ]


def _aggregate(config: CoverageConfig, outcomes) -> CoverageCell:
    cell = CoverageCell(config=config)
    for coverage, hosts, cost in outcomes:
        cell.coverages.append(coverage)
        cell.attacker_hosts.append(hosts)
        cell.costs_usd.append(cost)
    return cell


def run_cell(
    config: CoverageConfig = CoverageConfig(),
    runner: RunnerConfig | None = None,
) -> CoverageCell:
    """Measure victim instance coverage for one experiment cell."""
    results = run_cells(_rep_specs(config), runner)
    return _aggregate(config, (r.value for r in results))


@dataclass(frozen=True)
class MatrixConfig:
    """Sweep configuration for Fig. 11a/11b-style grids."""

    regions: tuple[str, ...] = ("us-east1", "us-central1", "us-west1")
    victim_accounts: tuple[str, ...] = ("account-2", "account-3")
    strategy: str = "optimized"
    generation: str = "gen1"
    victim_counts: tuple[int, ...] = (100,)
    victim_sizes: tuple[str, ...] = ("Small",)
    repetitions: int = 3
    ground_truth: str = "covert"
    base_seed: int = 600


def run_matrix(
    config: MatrixConfig = MatrixConfig(),
    runner: RunnerConfig | None = None,
) -> dict[tuple, CoverageCell]:
    """Run a grid of coverage cells.

    Returns a mapping from ``(region, account, n_victims, size_name)`` to
    the aggregated :class:`CoverageCell`.  Every repetition of every grid
    point is an independent cell, so the whole grid fans out at once.
    """
    grid: list[tuple[tuple, CoverageConfig]] = []
    for region in config.regions:
        for account in config.victim_accounts:
            for n_victims in config.victim_counts:
                for size_name in config.victim_sizes:
                    cell_config = CoverageConfig(
                        region=region,
                        victim_account=account,
                        strategy=config.strategy,
                        generation=config.generation,
                        n_victim_instances=n_victims,
                        victim_size=CONTAINER_SIZES[size_name],
                        repetitions=config.repetitions,
                        ground_truth=config.ground_truth,
                        base_seed=config.base_seed,
                    )
                    grid.append(
                        ((region, account, n_victims, size_name), cell_config)
                    )

    specs: list[CellSpec] = []
    for _key, cell_config in grid:
        specs.extend(_rep_specs(cell_config))
    results = run_cells(specs, runner)

    cells: dict[tuple, CoverageCell] = {}
    cursor = 0
    for key, cell_config in grid:
        chunk = results[cursor : cursor + cell_config.repetitions]
        cursor += cell_config.repetitions
        cells[key] = _aggregate(cell_config, (r.value for r in chunk))
    return cells


# ----------------------------------------------------------------------
# Figure specs
# ----------------------------------------------------------------------
#: Paper table per (strategy, generation).
PAPER_COVERAGE = {
    ("optimized", "gen1"): PAPER_OPTIMIZED_GEN1,
    ("naive", "gen1"): PAPER_NAIVE_GEN1,
    ("optimized", "gen2"): PAPER_OPTIMIZED_GEN2,
}


def _render_matrix(cells: dict[tuple, CoverageCell], config: MatrixConfig) -> str:
    """Coverage table with a column for each swept victim axis."""
    paper = PAPER_COVERAGE[(config.strategy, config.generation)]
    by_count = len(config.victim_counts) > 1
    by_size = len(config.victim_sizes) > 1
    columns = ("region", "account")
    columns += ("victims",) * by_count + ("size",) * by_size + ("paper", "measured")
    rows = [
        (region, account)
        + (n_victims,) * by_count
        + (size,) * by_size
        + (pct(paper[(region, account)]), pct(cell.mean))
        for (region, account, n_victims, size), cell in sorted(cells.items())
    ]
    return format_series(
        f"Victim coverage — {config.strategy} strategy, {config.generation}",
        columns,
        rows,
    )


def _within(paper: dict[tuple[str, str], float], tolerance: float, text: str) -> Band:
    return Band(
        f"every cell within {tolerance:g} of the paper", text,
        lambda cells: all(abs(cell.mean - paper[(region, account)]) < tolerance
                          for (region, account, _n, _s), cell in cells.items()),
    )


def _mean_at(cells: dict[tuple, CoverageCell], region: str, account: str) -> float:
    """Coverage of the 100-instance Small victim cell."""
    return cells[(region, account, 100, "Small")].mean


def _region_mean(cells: dict[tuple, CoverageCell], region: str) -> float:
    """Mean over victim accounts of the 100-instance Small cells."""
    return float(np.mean([
        cell.mean for (reg, _account, n_victims, size), cell in cells.items()
        if (reg, n_victims, size) == (region, 100, "Small")
    ]))


def _max_spread(cells: dict[tuple, CoverageCell]) -> float:
    """Largest coverage range across the victim axes of any region/account."""
    groups: dict[tuple[str, str], list[float]] = {}
    for (region, account, _n, _s), cell in cells.items():
        groups.setdefault((region, account), []).append(cell.mean)
    return max(float(np.ptp(means)) for means in groups.values())


_GEN1_TEXT = "us-east1 97.7/99.7%, us-central1 61.3/90.0%, us-west1 100/100%"
_SIZES = ("Pico", "Small", "Medium", "Large")

FIG11A = FigureSpec(
    id="fig11a", description="victim coverage, optimized strategy",
    quick=MatrixConfig(repetitions=1),
    full=MatrixConfig(victim_counts=(20, 50, 100, 200), repetitions=2),  # paper: 3
    driver=run_matrix, render=_render_matrix,
    bands=(
        _within(PAPER_OPTIMIZED_GEN1, 0.2, _GEN1_TEXT),
        Band("victim count moves coverage < 0.25", "no significant influence",
             lambda cells: _max_spread(cells) < 0.25, full_only=True),
        Band("us-central1 trails us-east1", "61.3/90.0% vs 97.7/99.7%",
             lambda c: _region_mean(c, "us-central1") < _region_mean(c, "us-east1") <= 1.0),
        Band("us-central1 trails us-west1", "61.3/90.0% vs 100/100%",
             lambda c: _region_mean(c, "us-central1") < _region_mean(c, "us-west1") <= 1.0),
    ),
)

FIG11B = FigureSpec(
    id="fig11b", description="victim coverage vs victim container size",
    quick=MatrixConfig(regions=("us-central1",), victim_sizes=_SIZES, repetitions=1),
    full=MatrixConfig(victim_sizes=_SIZES, repetitions=2),  # paper: 3
    driver=run_matrix, render=_render_matrix,
    bands=(
        _within(PAPER_OPTIMIZED_GEN1, 0.2, _GEN1_TEXT),
        Band("victim size moves coverage < 0.25", "no significant influence",
             lambda cells: _max_spread(cells) < 0.25),
    ),
)

NAIVE = FigureSpec(
    id="naive", description="victim coverage, naive strategy",
    quick=MatrixConfig(strategy="naive", repetitions=1),
    full=MatrixConfig(strategy="naive", repetitions=2),
    driver=run_matrix, render=_render_matrix,
    bands=(
        _within(PAPER_NAIVE_GEN1, 0.15, "0% except us-central1/3 81%, us-west1/2 100%"),
        Band("us-east1 account-2 uncovered", "0%",
             lambda c: _mean_at(c, "us-east1", "account-2") == 0.0),
        Band("us-east1 account-3 uncovered", "0%",
             lambda c: _mean_at(c, "us-east1", "account-3") == 0.0),
        Band("us-west1 account-3 uncovered", "0%",
             lambda c: _mean_at(c, "us-west1", "account-3") == 0.0),
        Band("us-west1 account-2 > 95%", "100% (shared base hosts)",
             lambda c: _mean_at(c, "us-west1", "account-2") > 0.95),
        Band("us-central1 account-3 > 60%", "81%",
             lambda c: _mean_at(c, "us-central1", "account-3") > 0.6),
        Band("us-central1 account-2 < 15%", "0%",
             lambda c: _mean_at(c, "us-central1", "account-2") < 0.15),
    ),
)

GEN2COV = FigureSpec(
    id="gen2cov", description="victim coverage, Gen 2",
    quick=MatrixConfig(generation="gen2", repetitions=1),
    full=MatrixConfig(generation="gen2", repetitions=2),  # paper: 3
    driver=run_matrix, render=_render_matrix,
    bands=(
        Band("us-east1 > 70% for both accounts", "87.3/88.7%",
             lambda c: all(_mean_at(c, "us-east1", a) > 0.7 for a in VICTIM_ACCOUNTS)),
        Band("us-west1 > 85% for both accounts", "96.0/97.3%",
             lambda c: all(_mean_at(c, "us-west1", a) > 0.85 for a in VICTIM_ACCOUNTS)),
        Band("us-central1 trails us-east1", "40.7/75.3% vs 87.3/88.7%",
             lambda c: _region_mean(c, "us-central1") < _region_mean(c, "us-east1")),
        _within(PAPER_OPTIMIZED_GEN2, 0.35,
                "us-east1 87.3/88.7%, us-central1 40.7/75.3%, us-west1 96.0/97.3%"),
    ),
)

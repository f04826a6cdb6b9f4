"""Experiments 1-4 of §5.1: reverse engineering the placement policy.

* **Experiment 1 / Observation 1** — instance distribution: 800 instances
  of one service land on ~75 hosts, ~10-11 instances each, near-uniform.
* **Experiment 2 / Fig. 7** — repeated cold launches (45-minute interval):
  per-launch apparent hosts stay ~constant and the cumulative count barely
  grows (base hosts).  Also holds with a *different* service per launch.
* **Experiment 3 / Fig. 8** — launches from three different accounts: the
  cumulative apparent-host count steps up at every account change.
* **Experiment 4 / Fig. 9** — launches at a short (10-minute) interval:
  both curves grow sharply (helper hosts); a 2-minute interval adds almost
  nothing; intervals >= 30 minutes behave like Fig. 7.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro import units
from repro.cloud.services import ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier
from repro.experiments.base import default_env
from repro.experiments.report import ComparisonRow, format_comparison, format_series
from repro.experiments.spec import Band, FigureSpec
from repro.runner import CellSpec, RunnerConfig, run_cells

PAPER_EXP1_HOSTS = 75
PAPER_EXP1_TYPICAL_PER_HOST = (10, 11)
PAPER_FIG9_CUMULATIVE_AFTER_6 = 264
PAPER_FIG9_EXTRA_AT_2MIN = 12


# ----------------------------------------------------------------------
# Experiment 1: instance distribution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DistributionConfig:
    region: str = "us-east1"
    instances: int = 800
    seed: int = 500


@dataclass
class DistributionResult:
    n_hosts: int
    per_host_counts: list[int]

    @property
    def min_per_host(self) -> int:
        return min(self.per_host_counts)

    @property
    def max_per_host(self) -> int:
        return max(self.per_host_counts)

    @property
    def modal_share(self) -> float:
        """Fraction of hosts holding the two most common counts."""
        counts = Counter(self.per_host_counts)
        top_two = sum(n for _value, n in counts.most_common(2))
        return top_two / len(self.per_host_counts)


def _distribution_cell(params: dict, seed: int) -> DistributionResult:
    """The Experiment 1 simulation body (one cell)."""
    env = default_env(params["region"], seed=seed)
    client = env.attacker
    instances = params["instances"]
    service = client.deploy(
        ServiceConfig(name="exp1", max_instances=max(100, instances))
    )
    handles = client.connect(service, instances)
    pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
    truth = ScalableVerifier(RngCovertChannel()).verify(pairs).cluster_index()
    counts = Counter(truth.values())
    return DistributionResult(
        n_hosts=len(counts), per_host_counts=sorted(counts.values())
    )


def run_distribution(
    config: DistributionConfig = DistributionConfig(),
    runner: RunnerConfig | None = None,
) -> DistributionResult:
    """Experiment 1: how 800 instances spread over hosts."""
    spec = CellSpec(
        experiment="exp1",
        fn=_distribution_cell,
        config={"region": config.region, "instances": config.instances},
        seed=config.seed,
        label=config.region,
    )
    return run_cells([spec], runner)[0].value


# ----------------------------------------------------------------------
# Experiments 2-4: footprints across launches
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LaunchSeriesConfig:
    """A sequence of launches whose footprints are compared.

    ``account_pattern`` gives the launching account per launch (Fig. 8 uses
    ``(1, 1, 2, 2, 3, 3)``); ``fresh_service_per_launch`` redeploys (and
    rebuilds the image of) a new service every launch, testing the
    data-locality hypothesis of Experiment 2.
    """

    region: str = "us-east1"
    launches: int = 6
    instances: int = 800
    interval: float = 45 * units.MINUTE
    account_pattern: tuple[int, ...] | None = None
    fresh_service_per_launch: bool = False
    p_boot: float = 1.0
    seed: int = 510


@dataclass
class LaunchSeriesResult:
    """Per-launch and cumulative apparent-host counts."""

    per_launch: list[int] = field(default_factory=list)
    cumulative: list[int] = field(default_factory=list)
    accounts: list[str] = field(default_factory=list)

    @property
    def growth(self) -> int:
        """Cumulative growth from the first launch to the last."""
        return self.cumulative[-1] - self.cumulative[0]

    def growth_at_account_changes(self) -> list[int]:
        """Cumulative jumps at launches where the account changed."""
        jumps = []
        for i in range(1, len(self.cumulative)):
            if self.accounts[i] != self.accounts[i - 1]:
                jumps.append(self.cumulative[i] - self.cumulative[i - 1])
        return jumps


def _series_cell(params: dict, seed: int) -> LaunchSeriesResult:
    """One launch-series cell (the whole sequence is one simulation)."""
    account_pattern = params["account_pattern"]
    config = LaunchSeriesConfig(
        region=params["region"],
        launches=params["launches"],
        instances=params["instances"],
        interval=params["interval"],
        account_pattern=tuple(account_pattern) if account_pattern else None,
        fresh_service_per_launch=params["fresh_service_per_launch"],
        p_boot=params["p_boot"],
        seed=seed,
    )
    env = default_env(config.region, seed=config.seed)
    pattern = config.account_pattern or tuple([1] * config.launches)
    if len(pattern) != config.launches:
        raise ValueError("account_pattern length must equal launches")

    result = LaunchSeriesResult()
    seen: set = set()
    services: dict[str, str] = {}
    for launch_idx, account_no in enumerate(pattern):
        account_id = f"account-{account_no}"
        client = env.clients[account_id]
        if config.fresh_service_per_launch or account_id not in services:
            name = client.deploy(
                ServiceConfig(
                    name=f"series-{launch_idx}",
                    max_instances=max(100, config.instances),
                )
            )
            client.rebuild_image(name)
            services[account_id] = name
        name = services[account_id]

        launch_start = client.now()
        handles = client.connect(name, config.instances)
        tagged = fingerprint_gen1_instances(handles, p_boot=config.p_boot)
        footprint = {fp for _, fp in tagged}
        seen |= footprint
        result.per_launch.append(len(footprint))
        result.cumulative.append(len(seen))
        result.accounts.append(account_id)
        client.disconnect(name)
        if launch_idx != config.launches - 1:
            elapsed = client.now() - launch_start
            client.wait(max(0.0, config.interval - elapsed))
    return result


def run_launch_series(
    config: LaunchSeriesConfig = LaunchSeriesConfig(),
    runner: RunnerConfig | None = None,
) -> LaunchSeriesResult:
    """Run a launch sequence and record apparent-host footprints."""
    spec = CellSpec(
        experiment="launch-series",
        fn=_series_cell,
        config={
            "region": config.region,
            "launches": config.launches,
            "instances": config.instances,
            "interval": config.interval,
            "account_pattern": config.account_pattern,
            "fresh_service_per_launch": config.fresh_service_per_launch,
            "p_boot": config.p_boot,
        },
        seed=config.seed,
        label=f"{config.region}/{config.interval / units.MINUTE:.0f}min",
    )
    return run_cells([spec], runner)[0].value


@dataclass(frozen=True)
class IntervalSweepConfig:
    """Fig. 9's companion sweep: footprint growth vs. launch interval."""

    region: str = "us-east1"
    intervals_minutes: tuple[float, ...] = (2.0, 10.0, 30.0, 45.0)
    launches: int = 6
    instances: int = 800
    seed: int = 520


def run_interval_sweep(
    config: IntervalSweepConfig = IntervalSweepConfig(),
    runner: RunnerConfig | None = None,
) -> dict[float, LaunchSeriesResult]:
    """Run the launch series once per interval; returns interval -> result.

    Each interval is an independent cell, so the sweep fans out at once.
    """
    specs = [
        CellSpec(
            experiment="launch-series",
            fn=_series_cell,
            config={
                "region": config.region,
                "launches": config.launches,
                "instances": config.instances,
                "interval": minutes * units.MINUTE,
                "account_pattern": None,
                "fresh_service_per_launch": False,
                "p_boot": 1.0,
            },
            seed=config.seed + offset,
            label=f"{config.region}/{minutes:.0f}min",
        )
        for offset, minutes in enumerate(config.intervals_minutes)
    ]
    results = run_cells(specs, runner)
    return {
        minutes: cell.value
        for minutes, cell in zip(config.intervals_minutes, results)
    }


# ----------------------------------------------------------------------
# Figure specs
# ----------------------------------------------------------------------
def _render_distribution(result: DistributionResult, config: DistributionConfig) -> str:
    return format_comparison(
        "Experiment 1 — 800 instances of one service",
        [
            ComparisonRow("hosts", "75", str(result.n_hosts)),
            ComparisonRow(
                "instances per host", "10-11",
                f"{result.min_per_host}-{result.max_per_host}",
            ),
        ],
    )


def _series_renderer(title: str):
    def render(result: LaunchSeriesResult, config: LaunchSeriesConfig) -> str:
        return format_series(
            title,
            ("launch", "hosts", "cumulative"),
            [(i + 1, p, c) for i, (p, c) in enumerate(zip(result.per_launch, result.cumulative))],
        )

    return render


def _render_accounts(result: LaunchSeriesResult, config: LaunchSeriesConfig) -> str:
    return format_series(
        "Figure 8 — three accounts, step pattern",
        ("launch", "account", "hosts", "cumulative"),
        [
            (i + 1, a, p, c)
            for i, (a, p, c) in enumerate(
                zip(result.accounts, result.per_launch, result.cumulative)
            )
        ],
    )


def _render_sweep(
    results: dict[float, LaunchSeriesResult], config: IntervalSweepConfig
) -> str:
    return format_series(
        "Figure 9 companion — footprint growth vs launch interval",
        ("interval_min", "growth_after_6_launches"),
        [(minutes, results[minutes].growth) for minutes in sorted(results)],
    )


def _same_account_growth(result: LaunchSeriesResult) -> list[int]:
    return [
        result.cumulative[i] - result.cumulative[i - 1]
        for i in range(1, len(result.cumulative))
        if result.accounts[i] == result.accounts[i - 1]
    ]


_BASE_HOSTS_GROWTH = Band("cumulative growth <= 8 hosts", "minimal (base hosts)",
                          lambda r: r.growth <= 8)

EXP1 = FigureSpec(
    id="exp1", description="instance distribution over hosts",
    quick=DistributionConfig(),
    full=DistributionConfig(),
    driver=run_distribution, render=_render_distribution,
    bands=(
        Band("hosts within 5 of the paper", f"{PAPER_EXP1_HOSTS}",
             lambda r: abs(r.n_hosts - PAPER_EXP1_HOSTS) <= 5),
        Band(">= 9 instances on every host", "10-11", lambda r: r.min_per_host >= 9),
        Band("<= 12 instances on every host", "10-11", lambda r: r.max_per_host <= 12),
        Band("most hosts at the two modal counts", "majority", lambda r: r.modal_share > 0.5),
    ),
)

FIG7 = FigureSpec(
    id="fig7", description="cold launches: base hosts",
    quick=LaunchSeriesConfig(),
    full=LaunchSeriesConfig(),
    driver=run_launch_series,
    render=_series_renderer("Figure 7 — cold launches, 45-min interval"),
    bands=(
        Band("six launches", "6", lambda r: len(r.per_launch) == 6),
        Band("per-launch footprint spread <= 5 hosts", "constant",
             lambda r: max(r.per_launch) - min(r.per_launch) <= 5),
        _BASE_HOSTS_GROWTH,
    ),
)

FIG7_FRESH = FigureSpec(
    id="fig7_fresh", description="cold launches, a fresh service (new image) per launch",
    quick=LaunchSeriesConfig(fresh_service_per_launch=True, seed=511),
    full=LaunchSeriesConfig(fresh_service_per_launch=True, seed=511),
    driver=run_launch_series,
    render=_series_renderer("Figure 7 variant — a fresh service (new image) per launch"),
    bands=(_BASE_HOSTS_GROWTH,),
)

FIG8 = FigureSpec(
    id="fig8", description="three accounts: step pattern",
    quick=LaunchSeriesConfig(account_pattern=(1, 1, 2, 2, 3, 3)),
    full=LaunchSeriesConfig(account_pattern=(1, 1, 2, 2, 3, 3), seed=512),
    driver=run_launch_series, render=_render_accounts,
    bands=(
        Band("two account changes", "pattern 1,1,2,2,3,3",
             lambda r: len(r.growth_at_account_changes()) == 2),
        Band("every account change adds > 50 hosts", "a step per new account",
             lambda r: all(jump > 50 for jump in r.growth_at_account_changes())),
        Band("same-account launches add <= 8 hosts", "minimal growth",
             lambda r: all(g <= 8 for g in _same_account_growth(r))),
        Band("cumulative > 2.5x the first launch", "~3 disjoint base sets",
             lambda r: r.cumulative[-1] > 2.5 * r.per_launch[0]),
    ),
)

FIG9 = FigureSpec(
    id="fig9", description="hot launches: helper hosts",
    quick=LaunchSeriesConfig(interval=10 * units.MINUTE),
    full=LaunchSeriesConfig(interval=10 * units.MINUTE, seed=513),
    driver=run_launch_series,
    render=_series_renderer("Figure 9 — hot launches, 10-min interval"),
    bands=(
        Band("cumulative hosts after 6 launches in [200, 330]",
             f"~{PAPER_FIG9_CUMULATIVE_AFTER_6}", lambda r: 200 <= r.cumulative[-1] <= 330),
        Band("growth vs launch 1 >= 120", "~+177", lambda r: r.growth >= 120),
        Band("per-launch and cumulative curves within 40 hosts", "curves track each other",
             lambda r: max(cum - per for per, cum in zip(r.per_launch, r.cumulative)) <= 40),
    ),
)

FIG9_SWEEP = FigureSpec(
    id="fig9_sweep", description="footprint growth vs launch interval",
    quick=IntervalSweepConfig(),
    full=IntervalSweepConfig(),
    driver=run_interval_sweep, render=_render_sweep,
    bands=(
        Band("2-min interval grows <= 40 hosts", f"~+{PAPER_FIG9_EXTRA_AT_2MIN}",
             lambda r: r[2.0].growth <= 40),
        Band("10-min interval grows > 3x the 2-min interval", "sweet spot at 10 min",
             lambda r: r[10.0].growth > 3 * max(r[2.0].growth, 1)),
        Band("45-min interval grows <= 8 hosts", "like Figure 7", lambda r: r[45.0].growth <= 8),
        Band("30-min interval grows no more than 10-min", ">= 30 min: no helpers",
             lambda r: r[30.0].growth <= r[10.0].growth),
    ),
)

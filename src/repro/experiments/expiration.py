"""Figure 5: fingerprint expiration time CDF (§4.4.2).

Track one long-running instance per apparent host for a week, recording the
derived boot time every hour; fit the linear drift and extrapolate when the
rounded boot time crosses a rounding boundary.

Paper reference: drift is strongly linear (minimum |r| = 0.9997 across all
histories); most fingerprints last several days; on average ~10% expire
within about 2 days.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.analysis.asciichart import render_cdf
from repro.analysis.distributions import cdf_at
from repro.core.attack.tracking import HostTracker
from repro.experiments.base import default_env
from repro.experiments.report import ComparisonRow, format_comparison, format_series
from repro.experiments.spec import Band, FigureSpec
from repro.runner import CellSpec, RunnerConfig, run_cells

PAPER_MIN_ABS_R = 0.9997
PAPER_DAYS_TO_10PCT_EXPIRED = 2.0


@dataclass(frozen=True)
class ExpirationConfig:
    """Configuration for the Fig. 5 expiration study."""

    regions: tuple[str, ...] = ("us-east1", "us-central1", "us-west1")
    n_launch: int = 100
    duration_days: float = 7.0
    cadence_hours: float = 1.0
    p_boot: float = 1.0
    base_seed: int = 300


@dataclass
class RegionExpiration:
    """Per-region expiration statistics."""

    region: str
    n_histories: int
    min_abs_r: float
    expiration_days: list[float] = field(default_factory=list)

    def cdf(self, day_grid: tuple[float, ...]) -> list[float]:
        """Fraction of fingerprints expired by each day mark."""
        return cdf_at(self.expiration_days, list(day_grid))

    @property
    def days_to_10pct_expired(self) -> float:
        """Time until 10% of fingerprints have expired."""
        return float(np.percentile(self.expiration_days, 10))


@dataclass
class ExpirationResult:
    """Outcome of the Fig. 5 experiment."""

    regions: list[RegionExpiration] = field(default_factory=list)

    @property
    def min_abs_r(self) -> float:
        return min(r.min_abs_r for r in self.regions)

    @property
    def mean_days_to_10pct_expired(self) -> float:
        return float(np.mean([r.days_to_10pct_expired for r in self.regions]))


def _region_cell(params: dict, seed: int) -> RegionExpiration:
    """One Fig. 5 cell: track one region's hosts for the whole window."""
    env = default_env(params["region"], seed=seed)
    tracker = HostTracker(env.attacker, n_launch=params["n_launch"])
    histories = tracker.run(
        duration_s=params["duration_days"] * units.DAY,
        cadence_s=params["cadence_hours"] * units.HOUR,
    )
    fits = [history.fit_drift() for history in histories]
    expirations = [
        history.expiration_seconds(params["p_boot"]) / units.DAY
        for history in histories
    ]
    return RegionExpiration(
        region=params["region"],
        n_histories=len(histories),
        min_abs_r=min(abs(fit.r_value) for fit in fits),
        expiration_days=expirations,
    )


def run(
    config: ExpirationConfig = ExpirationConfig(),
    runner: RunnerConfig | None = None,
) -> ExpirationResult:
    """Run the Fig. 5 fingerprint-expiration study (one cell per region)."""
    specs = [
        CellSpec(
            experiment="fig5",
            fn=_region_cell,
            config={
                "region": region,
                "n_launch": config.n_launch,
                "duration_days": config.duration_days,
                "cadence_hours": config.cadence_hours,
                "p_boot": config.p_boot,
            },
            seed=config.base_seed + idx,
            label=region,
        )
        for idx, region in enumerate(config.regions)
    ]
    result = ExpirationResult()
    result.regions.extend(cell.value for cell in run_cells(specs, runner))
    return result


def _render(result: ExpirationResult, config: ExpirationConfig) -> str:
    grid = (1.0, 2.0, 3.0, 5.0, 7.0)
    rows = []
    for region in result.regions:
        rows.extend(
            (region.region, d, f) for d, f in zip(grid, region.cdf(grid))
        )
    header = format_series(
        "Figure 5 — CDF of fingerprint expiration time", ("region", "days", "expired"), rows
    )
    tail = format_comparison(
        "Figure 5 — headline",
        [
            ComparisonRow("min |r|", ">= 0.9997", f"{result.min_abs_r:.5f}"),
            ComparisonRow("days to 10% expired", "~2", f"{result.mean_days_to_10pct_expired:.2f}"),
        ],
    )
    clipped = [
        min(days, 14.0)
        for region in result.regions
        for days in region.expiration_days
    ]
    chart = render_cdf(clipped, title="expiration CDF (days, clipped at 14)")
    return header + "\n\n" + tail + "\n\n" + chart


FIG5 = FigureSpec(
    id="fig5", description="fingerprint expiration CDF",
    quick=ExpirationConfig(regions=("us-east1",), duration_days=3.0, cadence_hours=3.0),
    full=ExpirationConfig(),
    driver=run, render=_render,
    bands=(
        Band("drift is strongly linear: min |r| >= 0.999", f">= {PAPER_MIN_ABS_R}",
             lambda r: r.min_abs_r >= 0.999),
        Band("days to 10% expired in (0.5, 6)", f"~{PAPER_DAYS_TO_10PCT_EXPIRED:g} days",
             lambda r: 0.5 < r.mean_days_to_10pct_expired < 6.0),
        Band("under half expired by day 2, every region", "most last days",
             lambda r: all(region.cdf((2.0,))[0] < 0.5 for region in r.regions)),
        Band(">= 50 tracked hosts per region", "66-79 per region",
             lambda r: all(region.n_histories >= 50 for region in r.regions)),
    ),
)

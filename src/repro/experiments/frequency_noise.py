"""§4.2: noise of the measured-TSC-frequency method.

Measure the TSC frequency (Δtsc / ΔT_w over ~100 ms windows, 10 repetitions)
on one instance per apparent host and classify the per-host standard
deviation.

Paper reference: most hosts show standard deviations below 100 Hz, but 58
of 586 evaluated hosts (~10%) show 10 kHz up to a few MHz — enough to
derive conflicting boot times on co-located instances — which is why the
paper uses the *reported* frequency instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.cloud.services import ServiceConfig
from repro.core.fingerprint import fingerprint_gen1_instances, group_by_fingerprint
from repro.core.frequency import measure_tsc_frequency
from repro.experiments.base import default_env
from repro.experiments.report import ComparisonRow, format_comparison
from repro.experiments.spec import Band, FigureSpec
from repro.runner import CellSpec, RunnerConfig, run_cells

PAPER_PROBLEMATIC_FRACTION = 58 / 586
PAPER_QUIET_STD_HZ = 100.0
PAPER_PROBLEMATIC_MIN_STD_HZ = 10.0 * units.KHZ


@dataclass(frozen=True)
class FrequencyNoiseConfig:
    """Configuration for the §4.2 measured-frequency study."""

    regions: tuple[str, ...] = ("us-east1", "us-central1", "us-west1")
    instances: int = 800
    interval_s: float = 0.1
    repetitions: int = 10
    base_seed: int = 800


@dataclass
class FrequencyNoiseResult:
    """Per-host measured-frequency standard deviations."""

    stds_hz: list[float] = field(default_factory=list)

    @property
    def n_hosts(self) -> int:
        return len(self.stds_hz)

    @property
    def quiet_fraction(self) -> float:
        """Hosts whose std stays below the paper's 100 Hz bound."""
        return sum(1 for s in self.stds_hz if s < PAPER_QUIET_STD_HZ) / self.n_hosts

    @property
    def problematic_fraction(self) -> float:
        """Hosts in the 10 kHz - MHz "problematic" regime."""
        return (
            sum(1 for s in self.stds_hz if s >= PAPER_PROBLEMATIC_MIN_STD_HZ)
            / self.n_hosts
        )

    @property
    def max_std_hz(self) -> float:
        return max(self.stds_hz)


def _region_cell(params: dict, seed: int) -> list[float]:
    """One §4.2 cell: per-host frequency stds for one region."""
    env = default_env(params["region"], seed=seed)
    client = env.attacker
    instances = params["instances"]
    service = client.deploy(
        ServiceConfig(name="freq-noise", max_instances=max(100, instances))
    )
    handles = client.connect(service, instances)
    tagged = fingerprint_gen1_instances(handles, p_boot=1.0)
    stds_hz = []
    for handle, *_others in group_by_fingerprint(tagged).values():
        estimate = handle.run(
            lambda sandbox: measure_tsc_frequency(
                sandbox,
                interval_s=params["interval_s"],
                repetitions=params["repetitions"],
            )
        )
        stds_hz.append(estimate.std_hz)
    return stds_hz


def run(
    config: FrequencyNoiseConfig = FrequencyNoiseConfig(),
    runner: RunnerConfig | None = None,
) -> FrequencyNoiseResult:
    """Run the measured-frequency noise study over one instance per host."""
    specs = [
        CellSpec(
            experiment="sec42",
            fn=_region_cell,
            config={
                "region": region,
                "instances": config.instances,
                "interval_s": config.interval_s,
                "repetitions": config.repetitions,
            },
            seed=config.base_seed + idx,
            label=region,
        )
        for idx, region in enumerate(config.regions)
    ]
    result = FrequencyNoiseResult()
    for cell in run_cells(specs, runner):
        result.stds_hz.extend(cell.value)
    return result


def _render(result: FrequencyNoiseResult, config: FrequencyNoiseConfig) -> str:
    return format_comparison(
        "§4.2 — measured-frequency noise",
        [
            ComparisonRow("hosts", "586", str(result.n_hosts)),
            ComparisonRow(
                "problematic fraction", "~10%", f"{100 * result.problematic_fraction:.0f}%"
            ),
            ComparisonRow("quiet fraction", "most", f"{100 * result.quiet_fraction:.0f}%"),
        ],
    )


SEC42 = FigureSpec(
    id="sec42", description="measured-frequency noise",
    quick=FrequencyNoiseConfig(regions=("us-east1",)),
    full=FrequencyNoiseConfig(),
    driver=run, render=_render,
    bands=(
        Band("> 150 hosts evaluated", "586", lambda r: r.n_hosts > 150, full_only=True),
        Band("problematic fraction in (5%, 18%)", "~10% (58/586)",
             lambda r: 0.05 < r.problematic_fraction < 0.18),
        Band("quiet fraction > 75%", f"most below {PAPER_QUIET_STD_HZ:g} Hz",
             lambda r: r.quiet_fraction > 0.75),
        Band("max std > 30 kHz", "10 kHz up to a few MHz",
             lambda r: r.max_std_hz > 30 * units.KHZ),
        Band("< 5% of hosts between 2 and 10 kHz", "two separated regimes",
             lambda r: sum(1 for s in r.stds_hz if 2e3 < s < 1e4) < 0.05 * r.n_hosts),
    ),
)

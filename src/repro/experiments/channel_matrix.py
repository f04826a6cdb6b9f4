"""Channel x platform matrix: every covert channel on every platform.

The paper validates one channel (hardware RNG) on one platform (Cloud
Run).  This extension sweeps the full registry cross-product: each
registered covert-channel kind (``rng``, ``bus``, ``llc``, ``dvfs``)
verifies co-location on each platform personality (neutral baseline,
``aws_lambda_like``, ``azure_functions_like``), and every cell scores the
verified clustering against the placement oracle.

One cell = one (channel, platform, repetition): build a small region
under the platform profile, launch a batch of attacker instances across
two services, fingerprint them the way the platform's instance-identity
exposure allows (Gen1 boot-time fingerprints or Gen2 unique IDs), then
run the fingerprint-guided :class:`~repro.core.verification.ScalableVerifier`
over the selected channel.  Accuracy is the pairwise Fowlkes-Mallows
index of verified clusters vs true hosts; cost is the channel's CTest
count and busy seconds.

The platform *name* travels inside the cell params, so distinct platforms
produce distinct cell cache keys.  Every cell also declares the
:class:`~repro.runner.EnvSpec` of the world it builds: cells that share a
(platform, seed) pair — every channel times every repetition — fork one
warm snapshot of the region instead of rebuilding it per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.asciichart import render_series
from repro.analysis.metrics import pair_confusion
from repro.cloud.platform import platform_profile
from repro.cloud.services import ServiceConfig
from repro.cloud.topology import AccountPlacementPlan, RegionProfile
from repro.core.covert import covert_channel_for
from repro.core.fingerprint import (
    fingerprint_gen1_instances,
    fingerprint_gen2_instances,
)
from repro.core.verification import ScalableVerifier, TaggedInstance
from repro.experiments.base import default_env
from repro.experiments.report import format_series, pct
from repro.experiments.spec import Band, FigureSpec
from repro.runner import CellSpec, EnvSpec, RunnerConfig, run_cells
from repro.telemetry import current_telemetry

#: Matrix axes: registry channel kinds x platform profile names.
DEFAULT_CHANNELS = ("rng", "bus", "llc", "dvfs")
DEFAULT_PLATFORMS = ("default", "aws_lambda_like", "azure_functions_like")


@dataclass(frozen=True)
class MatrixConfig:
    """One channel x platform sweep."""

    channels: tuple[str, ...] = DEFAULT_CHANNELS
    platforms: tuple[str, ...] = DEFAULT_PLATFORMS
    repetitions: int = 2
    n_hosts: int = 24
    n_services: int = 2
    instances_per_service: int = 8
    base_seed: int = 820


@dataclass
class MatrixPoint:
    """Aggregated outcomes for one (channel, platform) pair."""

    channel: str
    platform: str
    fmi: list[float] = field(default_factory=list)
    precision: list[float] = field(default_factory=list)
    recall: list[float] = field(default_factory=list)
    n_tests: list[int] = field(default_factory=list)
    busy_seconds: list[float] = field(default_factory=list)

    @property
    def mean_fmi(self) -> float:
        return float(np.mean(self.fmi)) if self.fmi else 0.0

    @property
    def mean_precision(self) -> float:
        return float(np.mean(self.precision)) if self.precision else 0.0

    @property
    def mean_recall(self) -> float:
        return float(np.mean(self.recall)) if self.recall else 0.0

    @property
    def mean_tests(self) -> float:
        return float(np.mean(self.n_tests)) if self.n_tests else 0.0

    @property
    def mean_busy_seconds(self) -> float:
        return float(np.mean(self.busy_seconds)) if self.busy_seconds else 0.0


@dataclass
class MatrixSummary:
    """Sweep result: one :class:`MatrixPoint` per matrix cell, in
    channel-major order."""

    points: list[MatrixPoint] = field(default_factory=list)

    def point(self, channel: str, platform: str) -> MatrixPoint:
        for p in self.points:
            if p.channel == channel and p.platform == platform:
                return p
        raise KeyError(f"no matrix point for ({channel!r}, {platform!r})")


def _scaled_profile(n_hosts: int) -> RegionProfile:
    """A paper-shaped region scaled down to ``n_hosts`` total hosts."""
    active = max(10, (2 * n_hosts) // 3)
    return RegionProfile(
        name=f"matrix-{n_hosts}",
        n_hosts=n_hosts,
        active_hosts=active,
        shard_size=5,
        helper_recruit_fraction=0.25,
        helper_pool_cap=max(12, active // 2),
        hot_min_concurrency=8,
        plan=AccountPlacementPlan(
            account_shards={"account-1": 0, "account-2": 1, "account-3": 2},
        ),
    )


def _matrix_cell(params: dict, seed: int) -> dict:
    """One (channel, platform) verification run, oracle-scored."""
    platform = platform_profile(params["platform"])
    env = default_env(
        profile=_scaled_profile(params["n_hosts"]),
        seed=seed,
        platform=platform,
    )
    attacker = env.attacker
    handles = []
    for index in range(params["n_services"]):
        name = attacker.deploy(ServiceConfig(name=f"matrix-{index}"))
        handles.extend(attacker.connect(name, params["instances_per_service"]))
    handles = [handle for handle in handles if handle.alive]

    # Fingerprint the way this platform's instance identity leaks: Gen2
    # exposure gives collision-free unique IDs (no false negatives), Gen1
    # gives boot-time fingerprints that step 3 must double-check.
    if platform.instance_id_exposure == "gen2":
        tagged = [
            TaggedInstance(handle, fingerprint)
            for handle, fingerprint in fingerprint_gen2_instances(handles)
            if handle.alive
        ]
        assume_no_false_negatives = True
    else:
        tagged = [
            TaggedInstance(handle, fingerprint, fingerprint.cpu_model)
            for handle, fingerprint in fingerprint_gen1_instances(
                handles, p_boot=1.0
            )
            if handle.alive
        ]
        assume_no_false_negatives = False

    channel = covert_channel_for(params["channel"])
    verifier = ScalableVerifier(
        channel, assume_no_false_negatives=assume_no_false_negatives
    )
    report = verifier.verify(tagged)

    # Oracle scoring only: the verifier above never sees a host id.
    predicted = report.cluster_index()
    orchestrator = env.orchestrator
    truth = {
        instance_id: orchestrator.true_host_of(instance_id)
        for instance_id in predicted
    }
    confusion = pair_confusion(predicted, truth)
    return {
        "fmi": confusion.fmi,
        "precision": confusion.precision,
        "recall": confusion.recall,
        "n_instances": len(tagged),
        "n_clusters": report.n_hosts,
        "n_true_hosts": len(set(truth.values())),
        "n_tests": report.n_tests,
        "busy_seconds": report.busy_seconds,
    }


def _cell_params(config: MatrixConfig, channel: str, platform: str) -> dict:
    return {
        "channel": channel,
        "platform": platform,
        "n_hosts": config.n_hosts,
        "n_services": config.n_services,
        "instances_per_service": config.instances_per_service,
    }


def run(
    config: MatrixConfig = MatrixConfig(),
    runner: RunnerConfig | None = None,
) -> MatrixSummary:
    """Run the matrix; every (channel, platform, rep) is one cell."""
    specs = [
        CellSpec(
            experiment="channel-matrix",
            fn=_matrix_cell,
            config=_cell_params(config, channel, platform),
            seed=config.base_seed + rep,
            label=f"{channel}/{platform}/rep{rep}",
            # Cells that differ only in channel share a (platform, seed)
            # world: declare it so the runner warm-forks instead of
            # rebuilding the region for every channel.
            env=EnvSpec(
                seed=config.base_seed + rep,
                profile=_scaled_profile(config.n_hosts),
                platform=platform_profile(platform),
            ),
        )
        for channel in config.channels
        for platform in config.platforms
        for rep in range(config.repetitions)
    ]
    with current_telemetry().span(
        "channel_matrix.sweep",
        cells=len(specs),
        channels=list(config.channels),
        platforms=list(config.platforms),
    ):
        results = run_cells(specs, runner)

    summary = MatrixSummary()
    cursor = 0
    for channel in config.channels:
        for platform in config.platforms:
            point = MatrixPoint(channel=channel, platform=platform)
            for result in results[cursor : cursor + config.repetitions]:
                value = result.value
                point.fmi.append(value["fmi"])
                point.precision.append(value["precision"])
                point.recall.append(value["recall"])
                point.n_tests.append(value["n_tests"])
                point.busy_seconds.append(value["busy_seconds"])
            cursor += config.repetitions
            summary.points.append(point)
    return summary


def _render(summary: MatrixSummary, config: MatrixConfig) -> str:
    short = {"aws_lambda_like": "aws-lambda", "azure_functions_like": "azure-func"}
    table = format_series(
        "Channel x platform matrix — co-location accuracy and cost (extension)",
        ("channel", "platform", "fmi", "precision", "recall", "tests", "busy_s"),
        [
            (
                p.channel,
                short.get(p.platform, p.platform),
                f"{p.mean_fmi:.3f}",
                pct(p.mean_precision),
                pct(p.mean_recall),
                f"{p.mean_tests:.1f}",
                f"{p.mean_busy_seconds:.1f}",
            )
            for p in summary.points
        ],
    )
    chart = render_series(
        [p.mean_busy_seconds for p in summary.points],
        [100.0 * p.mean_fmi for p in summary.points],
        title="accuracy (FMI %) vs channel busy time (s), all matrix cells",
        x_label="busy_s",
        y_label="FMI %",
    )
    return table + "\n\n" + chart


def _rng_is_cheapest(summary: MatrixSummary) -> bool:
    platforms = dict.fromkeys(p.platform for p in summary.points)
    return all(
        summary.point("rng", platform).mean_busy_seconds
        < min(
            p.mean_busy_seconds
            for p in summary.points
            if p.platform == platform and p.channel != "rng"
        )
        for platform in platforms
    )


CHANNEL_MATRIX = FigureSpec(
    id="channel_matrix", description="channel x platform accuracy/cost matrix (extension)",
    quick=MatrixConfig(repetitions=1),
    full=MatrixConfig(repetitions=3),
    driver=run, render=_render,
    bands=(
        Band("every channel verifies co-location on the baseline platform (FMI >= 0.9)",
             "RNG channel: reliable CTest (§4.3)",
             lambda s: all(p.mean_fmi >= 0.9 for p in s.points if p.platform == "default")),
        Band("RNG is the fastest channel on every platform",
             "RNG chosen over the slower memory bus (§4.3)", _rng_is_cheapest),
    ),
)

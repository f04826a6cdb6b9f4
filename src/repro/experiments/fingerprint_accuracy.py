"""Figure 4: Gen 1 fingerprint accuracy vs. rounding precision ``p_boot``.

For each repetition: launch 800 instances in a datacenter, take one Gen 1
fingerprinting sample per instance, establish co-location ground truth, then
sweep the rounding precision and score the resulting fingerprints with
pairwise precision / recall / FMI.

Paper reference: FMI is low at very fine precisions (measurement noise
splits hosts), near-perfect (average FMI 0.9999) for ``p_boot`` in
[100 ms, 1 s], and degrades at coarse precisions (hosts with similar boot
times collide).  14 of 15 runs produce perfect fingerprints at 1 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.asciichart import render_series
from repro.analysis.metrics import PairConfusion, pair_confusion
from repro.cloud.services import ServiceConfig
from repro.core import probes
from repro.experiments.base import default_env
from repro.experiments.ground_truth import truth_clusters
from repro.experiments.report import format_series
from repro.experiments.spec import Band, FigureSpec
from repro.runner import CellSpec, EnvSpec, RunnerConfig, run_cells

#: Paper's Fig. 4 sweet spot and headline number.
PAPER_SWEET_SPOT = (0.1, 1.0)
PAPER_SWEET_SPOT_FMI = 0.9999


@dataclass(frozen=True)
class AccuracyConfig:
    """Configuration for the Fig. 4 sweep."""

    regions: tuple[str, ...] = ("us-east1", "us-central1", "us-west1")
    repetitions: int = 5
    instances: int = 800
    p_boot_grid: tuple[float, ...] = (
        1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3,
    )
    ground_truth: str = "covert"
    base_seed: int = 100


@dataclass(frozen=True)
class SweepPoint:
    """Accuracy statistics at one rounding precision."""

    p_boot: float
    fmi_mean: float
    fmi_std: float
    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float


@dataclass
class AccuracyResult:
    """Outcome of the Fig. 4 experiment."""

    points: list[SweepPoint] = field(default_factory=list)
    #: FMI of each individual run at p_boot = 1 s.
    run_fmis_at_1s: list[float] = field(default_factory=list)

    @property
    def perfect_runs_at_1s(self) -> int:
        """Runs with FMI exactly 1.0 at the default precision."""
        return sum(1 for fmi in self.run_fmis_at_1s if fmi == 1.0)

    def point(self, p_boot: float) -> SweepPoint:
        """Look up the sweep point for a given precision."""
        for candidate in self.points:
            if candidate.p_boot == p_boot:
                return candidate
        raise KeyError(f"no sweep point at p_boot={p_boot!r}")


def _accuracy_cell(
    params: dict, seed: int
) -> tuple[list[tuple[str, tuple[str, float]]], dict[str, str]]:
    """One Fig. 4 cell: launch instances, sample inputs, get ground truth.

    Returns ``(samples, truth)`` where samples are
    ``(instance_id, (model, boot_time))`` inputs reusable across the sweep.
    """
    env = default_env(params["region"], seed=seed)
    client = env.attacker
    instances = params["instances"]
    service = client.deploy(
        ServiceConfig(name="accuracy", max_instances=max(100, instances))
    )
    handles = client.connect(service, instances)
    raw = [(h, h.run(probes.gen1_fingerprint_probe)) for h in handles]
    samples = [
        (h.instance_id, (s.cpu_model, s.boot_time())) for h, s in raw
    ]
    tagged_pairs = [(h, s.fingerprint(1.0)) for h, s in raw]
    truth = truth_clusters(params["ground_truth"], env.orchestrator, tagged_pairs)
    truth = {iid: str(label) for iid, label in truth.items()}
    return samples, truth


def _score(
    samples: list[tuple[str, tuple[str, float]]],
    truth: dict[str, str],
    p_boot: float,
) -> PairConfusion:
    predicted = {
        iid: (model, round(boot / p_boot)) for iid, (model, boot) in samples
    }
    return pair_confusion(predicted, truth)


def run(
    config: AccuracyConfig = AccuracyConfig(),
    runner: RunnerConfig | None = None,
) -> AccuracyResult:
    """Run the Fig. 4 accuracy sweep.

    The per-(region, repetition) simulations are independent cells; pass a
    :class:`~repro.runner.RunnerConfig` to fan them out and cache them.
    """
    specs: list[CellSpec] = []
    seed = config.base_seed
    for region in config.regions:
        for rep in range(config.repetitions):
            specs.append(
                CellSpec(
                    experiment="fig4",
                    fn=_accuracy_cell,
                    config={
                        "region": region,
                        "instances": config.instances,
                        "ground_truth": config.ground_truth,
                    },
                    seed=seed,
                    label=f"{region}/rep{rep}",
                    # Each (region, rep) world is distinct in one sweep,
                    # but a re-run in the same process forks the snapshot
                    # instead of rebuilding the region.
                    env=EnvSpec(region=region, seed=seed),
                )
            )
            seed += 1
    runs = [cell.value for cell in run_cells(specs, runner)]

    result = AccuracyResult()
    for samples, truth in runs:
        result.run_fmis_at_1s.append(_score(samples, truth, 1.0).fmi)

    for p_boot in config.p_boot_grid:
        confusions = [_score(samples, truth, p_boot) for samples, truth in runs]
        fmis = np.array([c.fmi for c in confusions])
        precisions = np.array([c.precision for c in confusions])
        recalls = np.array([c.recall for c in confusions])
        result.points.append(
            SweepPoint(
                p_boot=p_boot,
                fmi_mean=float(fmis.mean()),
                fmi_std=float(fmis.std()),
                precision_mean=float(precisions.mean()),
                precision_std=float(precisions.std()),
                recall_mean=float(recalls.mean()),
                recall_std=float(recalls.std()),
            )
        )
    return result


def _render(result: AccuracyResult, config: AccuracyConfig) -> str:
    table = format_series(
        "Figure 4 — fingerprint accuracy vs p_boot",
        ("p_boot_s", "FMI", "precision", "recall"),
        [(p.p_boot, p.fmi_mean, p.precision_mean, p.recall_mean) for p in result.points],
    )
    chart = render_series(
        [p.p_boot for p in result.points],
        [p.fmi_mean for p in result.points],
        log_x=True,
        title="FMI vs p_boot (log x)",
        x_label="p_boot (s)",
        y_label="FMI",
    )
    return table + "\n\n" + chart


FIG4 = FigureSpec(
    id="fig4", description="Gen 1 fingerprint accuracy vs p_boot",
    quick=AccuracyConfig(regions=("us-east1",), repetitions=1),
    full=AccuracyConfig(repetitions=2),  # paper: 5 reps x 3 DCs
    driver=run, render=_render,
    bands=(
        Band("sweet spot (0.1 s, 1 s) FMI > 0.995", "~0.9999",
             lambda r: all(r.point(p).fmi_mean > 0.995 for p in PAPER_SWEET_SPOT)),
        Band("1e-4 s recall < 0.6", "false negatives", lambda r: r.point(1e-4).recall_mean < 0.6),
        Band("1e-4 s precision > 0.99", "no collisions",
             lambda r: r.point(1e-4).precision_mean > 0.99),
        Band("1e3 s precision < 0.99", "hosts collide",
             lambda r: r.point(1e3).precision_mean < 0.99),
        Band("1e3 s recall > 0.99", "no false negatives",
             lambda r: r.point(1e3).recall_mean > 0.99),
        Band("all but one run perfect at 1 s", "14 of 15 runs",
             lambda r: r.perfect_runs_at_1s >= len(r.run_fmis_at_1s) - 1,
             full_only=True),  # quick scale has a single run
    ),
)

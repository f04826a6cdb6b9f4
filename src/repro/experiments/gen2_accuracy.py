"""§4.5: Gen 2 fingerprint accuracy (refined TSC frequency).

Same setup as the Fig. 4 experiment but in the Gen 2 (microVM) environment.
The refined-frequency fingerprint cannot produce false negatives (the value
is fixed at host boot), but its 1 kHz quantization collides distinct hosts.

Paper reference: average FMI 0.66, precision 0.48, recall 1.0, and on
average 2.0 hosts share one fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.services import ServiceConfig
from repro.analysis.metrics import pair_confusion
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen2_instances
from repro.core.verification import ScalableVerifier
from repro.experiments.base import default_env
from repro.experiments.report import ComparisonRow, format_comparison
from repro.experiments.spec import Band, FigureSpec
from repro.runner import CellSpec, RunnerConfig, run_cells

PAPER_FMI = 0.66
PAPER_PRECISION = 0.48
PAPER_HOSTS_PER_FINGERPRINT = 2.0


@dataclass(frozen=True)
class Gen2AccuracyConfig:
    """Configuration for the §4.5 Gen 2 accuracy experiment."""

    regions: tuple[str, ...] = ("us-east1", "us-central1", "us-west1")
    repetitions: int = 5
    instances: int = 800
    base_seed: int = 200


@dataclass
class Gen2AccuracyResult:
    """Outcome of the Gen 2 accuracy experiment."""

    fmi_mean: float = 0.0
    precision_mean: float = 0.0
    recall_mean: float = 0.0
    hosts_per_fingerprint_mean: float = 0.0
    per_run_fmi: list[float] = field(default_factory=list)


def _accuracy_cell(params: dict, seed: int) -> tuple[float, float, float, float]:
    """One Gen 2 run; returns ``(fmi, precision, recall, hosts_per_fp)``."""
    env = default_env(params["region"], seed=seed)
    client = env.attacker
    instances = params["instances"]
    service = client.deploy(
        ServiceConfig(
            name="gen2-accuracy",
            generation="gen2",
            max_instances=max(100, instances),
        )
    )
    handles = client.connect(service, instances)
    pairs = fingerprint_gen2_instances(handles)
    truth = ScalableVerifier(RngCovertChannel()).verify(pairs).cluster_index()
    predicted = {h.instance_id: fp for h, fp in pairs}
    confusion = pair_confusion(predicted, truth)

    # Hosts per fingerprint: distinct true clusters per fingerprint.
    hosts_by_fp: dict[object, set] = {}
    for handle, fp in pairs:
        hosts_by_fp.setdefault(fp, set()).add(truth[handle.instance_id])
    hosts_per_fp = float(np.mean([len(hosts) for hosts in hosts_by_fp.values()]))
    return confusion.fmi, confusion.precision, confusion.recall, hosts_per_fp


def run(
    config: Gen2AccuracyConfig = Gen2AccuracyConfig(),
    runner: RunnerConfig | None = None,
) -> Gen2AccuracyResult:
    """Run the Gen 2 fingerprint accuracy experiment."""
    specs: list[CellSpec] = []
    seed = config.base_seed
    for region in config.regions:
        for rep in range(config.repetitions):
            specs.append(
                CellSpec(
                    experiment="sec45",
                    fn=_accuracy_cell,
                    config={"region": region, "instances": config.instances},
                    seed=seed,
                    label=f"{region}/rep{rep}",
                )
            )
            seed += 1

    fmis, precisions, recalls, host_ratios = [], [], [], []
    for cell in run_cells(specs, runner):
        fmi, precision, recall, hosts_per_fp = cell.value
        fmis.append(fmi)
        precisions.append(precision)
        recalls.append(recall)
        host_ratios.append(hosts_per_fp)

    return Gen2AccuracyResult(
        fmi_mean=float(np.mean(fmis)),
        precision_mean=float(np.mean(precisions)),
        recall_mean=float(np.mean(recalls)),
        hosts_per_fingerprint_mean=float(np.mean(host_ratios)),
        per_run_fmi=[float(f) for f in fmis],
    )


def _render(result: Gen2AccuracyResult, config: Gen2AccuracyConfig) -> str:
    return format_comparison(
        "§4.5 — Gen 2 fingerprint accuracy",
        [
            ComparisonRow("FMI", "0.66", f"{result.fmi_mean:.2f}"),
            ComparisonRow("precision", "0.48", f"{result.precision_mean:.2f}"),
            ComparisonRow("recall", "1.00", f"{result.recall_mean:.2f}"),
            ComparisonRow(
                "hosts per fingerprint", "2.0",
                f"{result.hosts_per_fingerprint_mean:.1f}",
            ),
        ],
    )


SEC45 = FigureSpec(
    id="sec45", description="Gen 2 fingerprint accuracy",
    quick=Gen2AccuracyConfig(regions=("us-east1",), repetitions=1),
    full=Gen2AccuracyConfig(repetitions=2),  # paper: 5 reps x 3 DCs
    driver=run, render=_render,
    bands=(
        Band("recall == 1", "1.00 (no false negatives)", lambda r: r.recall_mean == 1.0),
        Band("precision in (0.25, 0.75)", f"{PAPER_PRECISION:.2f}",
             lambda r: 0.25 < r.precision_mean < 0.75),
        Band("FMI in (0.45, 0.85)", f"{PAPER_FMI:.2f}", lambda r: 0.45 < r.fmi_mean < 0.85),
        Band("hosts per fingerprint in (1.2, 3.0)", f"{PAPER_HOSTS_PER_FINGERPRINT:.1f}",
             lambda r: 1.2 < r.hosts_per_fingerprint_mean < 3.0),
        Band("FMI < 0.9", "below Gen 1's ~0.9999", lambda r: r.fmi_mean < 0.9),
    ),
)

"""Ablation: the group-testing threshold ``m`` (DESIGN.md §5).

With contention threshold ``m``, chunks hold up to ``2m - 1`` instances, so
larger ``m`` verifies each fingerprint group in fewer, bigger tests — at
the price of needing ``m`` co-located pressurers to light up at all.
"""

from repro.cloud.services import ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier
from repro.experiments.base import default_env
from repro.experiments.report import ComparisonRow, format_comparison

from benchmarks.conftest import run_once


def verify_with_m(threshold_m: int):
    env = default_env("us-east1", seed=950)
    client = env.attacker
    service = client.deploy(ServiceConfig(name="ablate-m", max_instances=800))
    handles = client.connect(service, 800)
    pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
    report = ScalableVerifier(RngCovertChannel(), threshold_m=threshold_m).verify(pairs)
    truth = {h.instance_id: env.orchestrator.true_host_of(h.instance_id) for h in handles}
    from repro.analysis.metrics import pair_confusion

    confusion = pair_confusion(report.cluster_index(), truth)
    return report, confusion


def test_ablation_threshold_m(benchmark, emit):
    results = run_once(
        benchmark, lambda: {m: verify_with_m(m) for m in (2, 3, 4)}
    )

    emit(
        format_comparison(
            "Ablation — group-testing threshold m (800 instances)",
            [
                ComparisonRow(
                    f"m={m}: tests / batches / FMI",
                    "-",
                    f"{report.n_tests} / {report.n_batches} / {confusion.fmi:.4f}",
                )
                for m, (report, confusion) in sorted(results.items())
            ],
        )
    )

    for m, (report, confusion) in results.items():
        assert confusion.fmi > 0.999, f"m={m} must stay exact"
    # Bigger chunks -> fewer tests.
    assert results[4][0].n_tests < results[2][0].n_tests
    assert results[3][0].n_tests <= results[2][0].n_tests

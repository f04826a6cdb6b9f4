"""Ablation: covert-channel choice — RNG (paper) vs memory bus (prior work).

The paper builds its verification on RNG contention because background RNG
use is rare (<1% contention), while the memory bus — the channel prior
co-location studies used — is constantly exercised by ordinary tenants and
needs several seconds per test.  This bench verifies the same 800 instances
through both channels.
"""

from repro.analysis.metrics import pair_confusion
from repro.cloud.services import ServiceConfig
from repro.core.covert import MemoryBusCovertChannel, RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier
from repro.experiments.base import default_env
from repro.experiments.report import ComparisonRow, format_comparison

from benchmarks.conftest import run_once


def verify_with(channel_cls):
    env = default_env("us-east1", seed=985)
    client = env.attacker
    service = client.deploy(ServiceConfig(name="channel", max_instances=800))
    handles = client.connect(service, 800)
    pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
    channel = channel_cls()
    report = ScalableVerifier(channel).verify(pairs)
    truth = {h.instance_id: env.orchestrator.true_host_of(h.instance_id) for h in handles}
    confusion = pair_confusion(report.cluster_index(), truth)
    return report, confusion


def test_ablation_covert_channel_choice(benchmark, emit):
    results = run_once(
        benchmark,
        lambda: {
            "rng": verify_with(RngCovertChannel),
            "memory_bus": verify_with(MemoryBusCovertChannel),
        },
    )

    emit(
        format_comparison(
            "Ablation — covert channel choice (verify 800 instances)",
            [
                ComparisonRow(
                    f"{name}: tests / minutes / FMI",
                    "-",
                    f"{report.n_tests} / {report.busy_seconds / 60:.1f} / "
                    f"{confusion.fmi:.4f}",
                )
                for name, (report, confusion) in results.items()
            ],
        )
    )

    rng_report, rng_confusion = results["rng"]
    bus_report, bus_confusion = results["memory_bus"]
    # Both channels verify correctly (the bus integrates longer)...
    assert rng_confusion.fmi > 0.999
    assert bus_confusion.fmi > 0.99
    # ...but the bus channel pays heavily in wall-clock time.
    assert bus_report.busy_seconds > 2.5 * rng_report.busy_seconds

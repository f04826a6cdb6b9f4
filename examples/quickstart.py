#!/usr/bin/env python3
"""Quickstart: fingerprint hosts and verify co-location on a simulated FaaS.

This walks the paper's core loop in ~40 lines of API calls:

1. stand up a simulated Cloud Run-style region;
2. deploy a service and launch container instances;
3. fingerprint each instance's physical host through the TSC (Gen 1);
4. verify the fingerprint groups with the scalable covert-channel method;
5. compare against the simulator's ground truth.

Run:  python examples/quickstart.py
"""

from repro.analysis.metrics import pair_confusion
from repro.cloud.services import ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier
from repro.experiments.base import default_env


def main() -> None:
    # A fresh simulated us-east1 with three registered accounts.
    env = default_env("us-east1", seed=7)
    client = env.attacker

    # Deploy a service and force 200 concurrent instances via connections.
    service = client.deploy(ServiceConfig(name="quickstart", max_instances=400))
    handles = client.connect(service, 200)
    print(f"launched {len(handles)} instances in {client.region}")

    # Gen 1 fingerprint: (CPU model, boot time derived from rdtsc).
    pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
    fingerprints = {fp for _h, fp in pairs}
    print(f"observed {len(fingerprints)} apparent hosts, e.g. {next(iter(fingerprints))}")

    # Verify co-location with the scalable group-testing method (§4.3);
    # the verifier batches Gen 1 groups by the fingerprints' CPU models.
    channel = RngCovertChannel()
    report = ScalableVerifier(channel).verify(pairs)
    print(
        f"verified {report.n_hosts} hosts with {report.n_tests} covert-channel "
        f"tests in {report.busy_seconds:.0f} simulated seconds "
        f"(pairwise would need {len(handles) * (len(handles) - 1) // 2})"
    )

    # Score the fingerprints against the covert-channel ground truth.
    predicted = {h.instance_id: fp for h, fp in pairs}
    truth = report.cluster_index()
    confusion = pair_confusion(predicted, truth)
    print(
        f"fingerprint quality: FMI={confusion.fmi:.4f} "
        f"precision={confusion.precision:.4f} recall={confusion.recall:.4f}"
    )

    # And against the simulator's oracle (only possible in simulation).
    oracle = {
        h.instance_id: env.orchestrator.true_host_of(h.instance_id) for h in handles
    }
    oracle_confusion = pair_confusion(truth, oracle)
    print(
        f"verification vs oracle: precision={oracle_confusion.precision:.4f} "
        f"recall={oracle_confusion.recall:.4f}"
    )

    client.disconnect(service)
    print(f"total bill: ${client.cost_usd:.4f}")


if __name__ == "__main__":
    main()

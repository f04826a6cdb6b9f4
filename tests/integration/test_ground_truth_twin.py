"""The covert verifier against the placement map, on cheap figure cells.

Figures score co-location only through fingerprints and covert-channel
tests.  On these cells that pipeline must find exactly what the
simulator's placement map says (:mod:`tests.oracles.ground_truth`).
"""

from __future__ import annotations

import pytest

from repro.cloud.services import ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier
from repro.experiments import coverage
from repro.experiments.base import default_env
from repro.experiments.launch_behavior import DistributionConfig
from tests.oracles.ground_truth import oracle_campaign, oracle_clusters, partition


@pytest.mark.parametrize(
    "region, account, strategy",
    [("us-west1", "account-2", "optimized"), ("us-east1", "account-2", "naive")],
    ids=["fig11a-us-west1", "naive-us-east1"],
)
def test_covert_coverage_equals_oracle(region, account, strategy):
    config = coverage.CoverageConfig(
        region=region, victim_account=account, strategy=strategy, repetitions=1
    )
    params = coverage._cell_params(config)
    covert = coverage._rep_cell(params, config.base_seed)
    assert covert == oracle_campaign(params, config.base_seed)


def test_covert_exp1_partition_equals_oracle():
    config = DistributionConfig()
    env = default_env(config.region, seed=config.seed)
    client = env.attacker
    service = client.deploy(ServiceConfig(name="exp1", max_instances=config.instances))
    pairs = fingerprint_gen1_instances(client.connect(service, config.instances))
    covert = ScalableVerifier(RngCovertChannel()).verify(pairs).cluster_index()
    assert partition(covert) == partition(oracle_clusters(env.orchestrator, pairs))


"""End-to-end integration: the full attack pipeline on a small region.

These tests walk the paper's complete flow — deploy, fingerprint, verify
co-location through the covert channel, attack, measure coverage — and
cross-check every black-box conclusion against the simulator's oracle.
"""


from repro import units
from repro.analysis.metrics import pair_confusion
from repro.cloud.services import ServiceConfig
from repro.core.attack.campaign import ColocationCampaign
from repro.core.attack.strategies import naive_launch, optimized_launch
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import (
    fingerprint_gen1_instances,
    fingerprint_gen2_instances,
)
from repro.core.verification import ScalableVerifier


class TestGen1Pipeline:
    def test_fingerprint_verify_pipeline(self, tiny_env):
        client = tiny_env.attacker
        service = client.deploy(ServiceConfig(name="pipeline"))
        handles = client.connect(service, 50)

        pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
        report = ScalableVerifier(RngCovertChannel()).verify(pairs)

        truth = {
            h.instance_id: tiny_env.orchestrator.true_host_of(h.instance_id)
            for h in handles
        }
        confusion = pair_confusion(report.cluster_index(), truth)
        assert confusion.fmi == 1.0

    def test_fingerprints_track_hosts_across_launches(self, tiny_env):
        """The decisive advantage over pairwise testing: fingerprints
        recognize the same host in a *later* launch."""
        client = tiny_env.attacker
        service = client.deploy(ServiceConfig(name="track"))
        h1 = client.connect(service, 10)
        fp1 = {fp for _h, fp in fingerprint_gen1_instances(h1, p_boot=1.0)}
        client.disconnect(service)
        client.wait(45 * units.MINUTE)  # all instances reaped, service cold
        h2 = client.connect(service, 10)
        fp2 = {fp for _h, fp in fingerprint_gen1_instances(h2, p_boot=1.0)}
        # Same account -> same base hosts -> same fingerprints.
        assert fp1 & fp2

    def test_full_campaign_gen1(self, tiny_env):
        campaign = ColocationCampaign(
            attacker=tiny_env.attacker,
            victim=tiny_env.victim("account-2"),
            strategy=lambda c: optimized_launch(
                c, n_services=2, launches=4, instances_per_service=16,
                interval_s=10 * units.MINUTE,
            ),
        )
        result = campaign.run(n_victim_instances=10)
        # The tiny region has 20 active hosts; a primed attacker reaches
        # most of them, so coverage must be substantial.
        assert result.coverage >= 0.5
        assert result.attacker_cost_usd > 0


class TestGen2Pipeline:
    def test_gen2_verification_with_collisions(self, tiny_env):
        """Gen 2 fingerprints collide across hosts; the verifier must
        still produce exact clusters."""
        client = tiny_env.attacker
        service = client.deploy(ServiceConfig(name="g2", generation="gen2"))
        handles = client.connect(service, 50)
        pairs = fingerprint_gen2_instances(handles)
        report = ScalableVerifier(RngCovertChannel()).verify(pairs)
        truth = {
            h.instance_id: tiny_env.orchestrator.true_host_of(h.instance_id)
            for h in handles
        }
        confusion = pair_confusion(report.cluster_index(), truth)
        assert confusion.precision == 1.0
        assert confusion.recall == 1.0

    def test_gen2_fingerprints_never_false_negative(self, tiny_env):
        client = tiny_env.attacker
        service = client.deploy(ServiceConfig(name="g2b", generation="gen2"))
        handles = client.connect(service, 30)
        pairs = fingerprint_gen2_instances(handles)
        orch = tiny_env.orchestrator
        by_host: dict = {}
        for handle, fp in pairs:
            by_host.setdefault(orch.true_host_of(handle.instance_id), set()).add(fp)
        assert all(len(fps) == 1 for fps in by_host.values())

    def test_gen1_and_gen2_share_hosts(self, tiny_env):
        """Paper §5.1 'Other factors': Gen 2 instances can share hosts
        with Gen 1 instances."""
        client = tiny_env.attacker
        s1 = client.deploy(ServiceConfig(name="mix1", generation="gen1"))
        s2 = client.deploy(ServiceConfig(name="mix2", generation="gen2"))
        h1 = client.connect(s1, 10)
        h2 = client.connect(s2, 10)
        orch = tiny_env.orchestrator
        hosts1 = {orch.true_host_of(h.instance_id) for h in h1}
        hosts2 = {orch.true_host_of(h.instance_id) for h in h2}
        assert hosts1 & hosts2


class TestStrategiesCompared:
    def test_optimized_beats_naive_for_cross_account(self, tiny_env_factory):
        def coverage(strategy):
            env = tiny_env_factory(seed=11)
            campaign = ColocationCampaign(
                attacker=env.attacker,
                victim=env.victim("account-2"),
                strategy=strategy,
            )
            return campaign.run(n_victim_instances=10).coverage

        naive_cov = coverage(
            lambda c: naive_launch(c, n_services=2, instances_per_service=16)
        )
        optimized_cov = coverage(
            lambda c: optimized_launch(
                c, n_services=2, launches=4, instances_per_service=16,
                interval_s=10 * units.MINUTE,
            )
        )
        assert naive_cov == 0.0
        assert optimized_cov > 0.3

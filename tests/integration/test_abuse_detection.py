"""Integration tests for the platform-side abuse monitor (§6 defenses)."""

import pytest

from repro.cloud.abuse import AbuseMonitor
from repro.cloud.services import ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier, TaggedInstance


def launch_and_tag(env, n, name="svc"):
    client = env.attacker
    service = client.deploy(ServiceConfig(name=name))
    handles = client.connect(service, n)
    pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
    return [TaggedInstance(h, fp, fp.cpu_model) for h, fp in pairs], handles


class TestAbuseMonitor:
    def test_detects_verification_campaign(self, tiny_env):
        monitor = AbuseMonitor(
            tiny_env.orchestrator, host_threshold=5, sample_period_s=0.5
        )
        monitor.attach()
        tagged, _handles = launch_and_tag(tiny_env, 40)
        ScalableVerifier(RngCovertChannel()).verify(tagged)
        assert "account-1" in monitor.flagged_accounts
        verdict = monitor.verdicts[0]
        assert verdict.hosts_in_window >= 5

    def test_benign_tenant_not_flagged(self, tiny_env):
        """A crypto-ish service that briefly pressures the RNG on its own
        couple of hosts stays under the radar."""
        monitor = AbuseMonitor(
            tiny_env.orchestrator, host_threshold=5, sample_period_s=0.5
        )
        monitor.attach()
        client = tiny_env.victim("account-2")
        name = client.deploy(ServiceConfig(name="crypto"))
        handles = client.connect(name, 3)
        for handle in handles:
            handle.run(lambda s: s.start_channel_pressure("rng"))
        client.wait(30.0)
        for handle in handles:
            handle.run(lambda s: s.stop_channel_pressure("rng"))
        client.wait(120.0)
        assert monitor.flagged_accounts == set()

    def test_quiet_platform_never_flags(self, tiny_env):
        monitor = AbuseMonitor(tiny_env.orchestrator, host_threshold=5)
        monitor.attach()
        client = tiny_env.attacker
        name = client.deploy(ServiceConfig(name="web"))
        client.connect(name, 20)
        client.wait(600.0)
        assert monitor.verdicts == []

    def test_enforcement_stops_the_campaign(self, tiny_env):
        monitor = AbuseMonitor(
            tiny_env.orchestrator,
            host_threshold=5,
            sample_period_s=0.5,
            enforce=True,
        )
        monitor.attach()
        tagged, handles = launch_and_tag(tiny_env, 40)
        # Termination mid-campaign surfaces as dead instances under the
        # verifier's probes.  The channel degrades gracefully — silence
        # reads as a negative verdict — so the run completes instead of
        # crashing, but the campaign itself is still stopped cold.
        report = ScalableVerifier(RngCovertChannel()).verify(tagged)
        assert "account-1" in monitor.flagged_accounts
        assert all(not h.alive for h in handles)
        covered = {h.instance_id for c in report.clusters for h in c}
        assert covered == {t.handle.instance_id for t in tagged}

    def test_detach_stops_observing(self, tiny_env):
        monitor = AbuseMonitor(tiny_env.orchestrator, host_threshold=5)
        monitor.attach()
        monitor.detach()
        tagged, _handles = launch_and_tag(tiny_env, 40)
        ScalableVerifier(RngCovertChannel()).verify(tagged)
        assert monitor.flagged_accounts == set()

    def test_parameter_validation(self, tiny_env):
        with pytest.raises(ValueError):
            AbuseMonitor(tiny_env.orchestrator, sample_period_s=0.0)
        with pytest.raises(ValueError):
            AbuseMonitor(tiny_env.orchestrator, host_threshold=1)

    def test_attach_is_idempotent(self, tiny_env):
        monitor = AbuseMonitor(tiny_env.orchestrator, host_threshold=5)
        monitor.attach()
        monitor.attach()
        monitor.detach()  # must not raise (only one hook registered)

"""Edge cases around fingerprint collection and placement stability."""


from collections import Counter

from repro import units
from repro.cloud.services import ServiceConfig
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.hardware.cpu import CPUModel
from repro.sandbox.base import Sandbox


class TestCollectionRobustness:
    def test_instances_without_reported_frequency_skipped(self, tiny_env):
        """A host whose model name lacks a labeled frequency cannot yield a
        Gen 1 fingerprint; collection skips it instead of failing."""
        client = tiny_env.attacker
        name = client.deploy(ServiceConfig(name="edge"))
        handles = client.connect(name, 10)
        # Sabotage one instance's host model (simulating an exotic SKU).
        orch = tiny_env.orchestrator
        host_id = orch.true_host_of(handles[0].instance_id)
        host = tiny_env.datacenter.host(host_id)
        original = host.cpu
        host.cpu = CPUModel("Mystery CPU", original.base_frequency_hz)
        try:
            tagged = fingerprint_gen1_instances(handles, p_boot=1.0)
        finally:
            host.cpu = original
        skipped = sum(
            1 for h in handles if orch.true_host_of(h.instance_id) == host_id
        )
        assert len(tagged) == len(handles) - skipped
        assert skipped >= 1

    def test_fingerprints_stable_across_time_of_day(self, tiny_env):
        """§5.1 'Other factors': launching at different times of day finds
        the same base hosts (fingerprints drift slightly but match at the
        default rounding)."""
        client = tiny_env.attacker
        name = client.deploy(ServiceConfig(name="tod"))
        morning = {
            fp for _h, fp in fingerprint_gen1_instances(client.connect(name, 10), 1.0)
        }
        client.disconnect(name)
        client.wait(9 * units.HOUR)  # same day, evening
        evening = {
            fp for _h, fp in fingerprint_gen1_instances(client.connect(name, 10), 1.0)
        }
        assert len(morning & evening) >= 0.8 * len(morning)


class TestScaleFromZero:
    def test_invoke_scales_cold_service(self, tiny_env):
        client = tiny_env.attacker
        client.deploy(ServiceConfig(name="cold"))
        client.probe("account-1/cold", processing_seconds=0.1)
        service = tiny_env.orchestrator.services["account-1/cold"]
        assert len(tiny_env.orchestrator.alive_instances(service)) == 1

    def test_invocations_spread_round_robin(self, tiny_env, monkeypatch):
        served = Counter()
        serve_request = Sandbox.serve_request

        def counting(sandbox, processing_seconds):
            served[sandbox.sandbox_id] += 1
            return serve_request(sandbox, processing_seconds)

        monkeypatch.setattr(Sandbox, "serve_request", counting)
        client = tiny_env.attacker
        name = client.deploy(ServiceConfig(name="rr"))
        handles = client.connect(name, 4)
        for _ in range(8):
            client.probe("account-1/rr", processing_seconds=0.1)
        # Each of the four instances served two of the eight requests.
        assert sorted(served) == sorted(h.instance_id for h in handles)
        assert set(served.values()) == {2}

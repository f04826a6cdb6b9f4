"""Unit tests for the uncontrolled-victim probe surface.

Three layers are pinned here: the sandbox physics (``serve_request``
latency bands under memory-bus locking), the platform routing
(``Orchestrator.probe_service`` / ``FaaSClient.probe``), and the
probe-noise fault site that perturbs the whole stack under ``--faults``.
"""

import pytest

from repro.cloud.services import ServiceConfig
from repro.core.attack.locator import probe_latency_threshold
from repro.errors import CloudError, FaultSpecError
from repro.faults import FaultPlan, FaultSpec
from repro.sandbox.base import Sandbox


def _one_instance(env, client, name="svc"):
    client.deploy(ServiceConfig(name=name))
    return client.connect(name, 1)[0]


class TestServeRequest:
    """Latency physics: jitter band unlocked, clean separation when locked."""

    def test_unlocked_band(self, tiny_env):
        handle = _one_instance(tiny_env, tiny_env.attacker)
        p = 0.05
        for _ in range(50):
            latency = handle.run(lambda sb: sb.serve_request(p))
            assert p <= latency <= p * (1.0 + Sandbox.SERVE_JITTER)

    def test_one_locker_band(self, tiny_env):
        victim = _one_instance(tiny_env, tiny_env.victim(), "vic")
        # Lock the victim's own bus from inside: same host by construction.
        victim.run(lambda sb: sb.start_channel_pressure("bus"))
        p = 0.05
        low = p * (1.0 + Sandbox.BUS_LOCK_SLOWDOWN)
        high = low * (1.0 + Sandbox.SERVE_JITTER)
        for _ in range(50):
            latency = victim.run(lambda sb: sb.serve_request(p))
            assert low <= latency <= high
        victim.run(lambda sb: sb.stop_channel_pressure("bus"))

    def test_threshold_separates_the_bands(self):
        """The absolute threshold sits strictly between the unlocked
        maximum and the one-locker minimum, so a single clean probe is
        decisive in either direction."""
        p = 0.05
        threshold = probe_latency_threshold(p)
        unlocked_max = p * (1.0 + Sandbox.SERVE_JITTER)
        locked_min = p * (1.0 + Sandbox.BUS_LOCK_SLOWDOWN)
        assert unlocked_max < threshold < locked_min

    def test_lockers_stack_additively(self, tiny_env):
        victim = _one_instance(tiny_env, tiny_env.victim(), "vic")
        p = 0.05
        victim.run(lambda sb: sb.start_channel_pressure("bus"))
        one = victim.run(lambda sb: sb.serve_request(p))
        assert one >= p * (1.0 + Sandbox.BUS_LOCK_SLOWDOWN)


class TestProbeApi:
    def test_probe_is_cross_account(self, tiny_env):
        """An attacker can time another tenant's service with no ownership
        — the service was never deployed through the attacker's client."""
        _one_instance(tiny_env, tiny_env.victim(), "vic")
        latency = tiny_env.attacker.probe("account-2/vic")
        p = 0.05
        assert p <= latency <= p * (1.0 + Sandbox.SERVE_JITTER)

    def test_probe_advances_wall_clock_by_latency(self, tiny_env):
        _one_instance(tiny_env, tiny_env.victim(), "vic")
        before = tiny_env.clock.now()
        latency = tiny_env.attacker.probe("account-2/vic")
        # abs tolerance: the clock sits at ~1.7e9 s, so adding a 50 ms
        # latency costs a few ULPs of float precision.
        assert tiny_env.clock.now() - before == pytest.approx(latency, abs=1e-6)

    def test_probe_unknown_url_raises(self, tiny_env):
        with pytest.raises(CloudError, match="no service at"):
            tiny_env.attacker.probe("account-2/ghost")

    def test_probe_scales_from_zero(self, tiny_env):
        """Probing a deployed-but-idle service cold-starts one instance,
        like any request to a scale-to-zero platform would."""
        victim = tiny_env.victim()
        victim.deploy(ServiceConfig(name="cold"))
        latency = tiny_env.attacker.probe("account-2/cold")
        assert latency >= 0.05
        service = tiny_env.orchestrator.services["account-2/cold"]
        assert len(tiny_env.orchestrator.alive_instances(service)) == 1

    def test_probe_observes_cross_instance_bus_lock(self, tiny_env):
        """The end-to-end signal: an attacker instance co-resident with
        the victim stretches the victim's probe latency measurably."""
        victim = _one_instance(tiny_env, tiny_env.victim(), "vic")
        threshold = probe_latency_threshold(0.05)
        quiet = tiny_env.attacker.probe("account-2/vic")
        assert quiet < threshold
        victim.run(lambda sb: sb.start_channel_pressure("bus"))
        loud = tiny_env.attacker.probe("account-2/vic")
        assert loud >= threshold


class TestDeadLockerCleanup:
    def test_terminate_releases_bus_pressure(self, tiny_env):
        """A locker that dies mid-lock must not pin its host's bus: the
        orchestrator releases hardware pressure on termination, so the
        locator's mid-search-death handling sees a quiet bus again."""
        handle = _one_instance(tiny_env, tiny_env.attacker)
        host_id = handle._instance.host_id
        host = tiny_env.datacenter.host(host_id)
        handle.run(lambda sb: sb.start_channel_pressure("bus"))
        handle.run(lambda sb: sb.start_channel_pressure("rng"))
        assert host.memory_bus.pressurer_count == 1
        assert host.rng_resource.pressurer_count == 1
        tiny_env.orchestrator._terminate([handle._instance.row], tiny_env.clock.now())
        assert not handle.alive
        assert host.memory_bus.pressurer_count == 0
        assert host.rng_resource.pressurer_count == 0


class TestProbeNoiseFaultSite:
    def test_parse_aliases(self):
        spec = FaultSpec.parse("probe=0.2,probe_seconds=0.5,seed=9")
        assert spec.probe_noise_rate == 0.2
        assert spec.probe_noise_seconds == 0.5
        assert spec.enabled

    def test_rate_validation(self):
        with pytest.raises(FaultSpecError):
            FaultSpec(probe_noise_rate=1.5)
        with pytest.raises(FaultSpecError):
            FaultSpec(probe_noise_seconds=-0.1)

    def test_probe_delay_is_deterministic_per_token(self):
        plan_a = FaultPlan(FaultSpec(probe_noise_rate=0.5, seed=3))
        plan_b = FaultPlan(FaultSpec(probe_noise_rate=0.5, seed=3))
        tokens = [f"account-2/vic#p{i}" for i in range(64)]
        delays_a = [plan_a.probe_delay_seconds(t) for t in tokens]
        delays_b = [plan_b.probe_delay_seconds(t) for t in tokens]
        assert delays_a == delays_b
        assert set(delays_a) == {0.0, plan_a.spec.probe_noise_seconds}

    def test_counter_and_summary(self):
        plan = FaultPlan(FaultSpec(probe_noise_rate=1.0, seed=1))
        assert plan.probe_delay_seconds("t#p0") > 0.0
        assert plan.counters.probe_noise == 1
        assert plan.counters.total_injected == 1
        assert "probe-noise 1" in plan.counters.summary()

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(FaultSpec(launch_error_rate=0.1, seed=1))
        for i in range(32):
            assert plan.probe_delay_seconds(f"t#p{i}") == 0.0
        assert plan.counters.probe_noise == 0

    def test_noise_injected_end_to_end(self, tiny_env_factory):
        """At rate 1.0 every probe carries the delay; the sequence-number
        token means consecutive probes draw independently (all fire here,
        and the latency floor shifts by exactly the noise delta)."""
        plan = FaultPlan(FaultSpec(probe_noise_rate=1.0, probe_noise_seconds=0.25, seed=5))
        env = tiny_env_factory(seed=5, fault_plan=plan)
        env.victim().deploy(ServiceConfig(name="vic"))
        env.victim().connect("vic", 1)
        for _ in range(3):
            latency = env.attacker.probe("account-2/vic")
            assert latency >= 0.25 + 0.05
        assert plan.counters.probe_noise == 3

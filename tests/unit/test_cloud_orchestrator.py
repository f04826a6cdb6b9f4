"""Unit tests for the orchestrator (scaling, reaping, billing, placement)."""

import pytest

from repro import units
from repro.cloud.accounts import Account
from repro.fleet import InstanceState
from repro.cloud.services import ServiceConfig
from repro.errors import CloudError, QuotaExceededError


def deploy(env, name="svc", account="account-1", **config):
    config.setdefault("max_instances", 100)
    return env.orchestrator.deploy_service(account, ServiceConfig(name=name, **config))


class TestControlPlane:
    def test_deploy_assigns_image(self, tiny_env):
        service = deploy(tiny_env)
        assert service.image_id.startswith("image-")

    def test_duplicate_service_rejected(self, tiny_env):
        deploy(tiny_env)
        with pytest.raises(CloudError):
            deploy(tiny_env)

    def test_same_name_different_accounts_ok(self, tiny_env):
        deploy(tiny_env, account="account-1")
        deploy(tiny_env, account="account-2")

    def test_rebuild_image_changes_id(self, tiny_env):
        service = deploy(tiny_env)
        old = service.image_id
        tiny_env.orchestrator.rebuild_image(service)
        assert service.image_id != old

    def test_unregistered_account_rejected(self, tiny_env):
        with pytest.raises(CloudError):
            deploy(tiny_env, account="nobody")

    def test_duplicate_account_registration_rejected(self, tiny_env):
        with pytest.raises(CloudError):
            tiny_env.orchestrator.register_account(Account("account-1"))


class TestScaling:
    def test_connect_creates_requested_instances(self, tiny_env):
        service = deploy(tiny_env)
        instances = tiny_env.orchestrator.connect(service, 12)
        assert len(instances) == 12
        assert all(i.state is InstanceState.ACTIVE for i in instances)

    def test_connect_beyond_service_limit_rejected(self, tiny_env):
        service = deploy(tiny_env, max_instances=10)
        with pytest.raises(CloudError):
            tiny_env.orchestrator.connect(service, 11)

    def test_connect_beyond_account_quota_rejected(self, tiny_env):
        account = tiny_env.orchestrator.accounts["account-1"]
        account.max_instances_per_service = 5
        service = deploy(tiny_env)
        with pytest.raises(QuotaExceededError):
            tiny_env.orchestrator.connect(service, 6)

    def test_connect_reuses_idle_instances(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        first = orch.connect(service, 8)
        orch.disconnect(service)
        # Reconnect before any reaping: same instances come back.
        second = orch.connect(service, 8)
        assert {i.instance_id for i in first} == {i.instance_id for i in second}

    def test_cold_start_advances_clock(self, tiny_env):
        service = deploy(tiny_env)
        t0 = tiny_env.clock.now()
        tiny_env.orchestrator.connect(service, 10)
        assert tiny_env.clock.now() > t0

    def test_instances_placed_on_account_base_hosts(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        instances = orch.connect(service, 10)
        base = set(tiny_env.datacenter.shard_hosts(0))  # account-1 -> shard 0
        assert {i.host_id for i in instances} <= base

    def test_different_accounts_different_base_hosts(self, tiny_env):
        orch = tiny_env.orchestrator
        s1 = deploy(tiny_env, name="a1", account="account-1")
        s2 = deploy(tiny_env, name="a2", account="account-2")
        h1 = {i.host_id for i in orch.connect(s1, 10)}
        h2 = {i.host_id for i in orch.connect(s2, 10)}
        assert h1.isdisjoint(h2)

    def test_kill_service_terminates_everything(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.connect(service, 6)
        orch.kill_service(service)
        assert orch.alive_instances(service) == []


class TestIdleReaping:
    def test_idle_instances_survive_grace_period(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.connect(service, 10)
        orch.disconnect(service)
        tiny_env.clock.sleep(tiny_env.datacenter.profile.idle_grace * 0.9)
        assert len(orch.alive_instances(service)) == 10

    def test_all_idle_gone_by_deadline(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.connect(service, 10)
        orch.disconnect(service)
        tiny_env.clock.sleep(tiny_env.datacenter.profile.idle_deadline + 1.0)
        assert orch.alive_instances(service) == []

    def test_gradual_termination_between_grace_and_deadline(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env, max_instances=40)
        orch.connect(service, 40)
        orch.disconnect(service)
        profile = tiny_env.datacenter.profile
        midpoint = (profile.idle_grace + profile.idle_deadline) / 2
        tiny_env.clock.sleep(midpoint)
        remaining = len(orch.alive_instances(service))
        assert 0 < remaining < 40

    def test_reconnect_cancels_reaping(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.connect(service, 6)
        orch.disconnect(service)
        orch.connect(service, 6)  # reconnect immediately
        tiny_env.clock.sleep(tiny_env.datacenter.profile.idle_deadline + 60.0)
        assert len(orch.alive_instances(service)) == 6

    def test_active_instances_never_reaped(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.connect(service, 4)
        tiny_env.clock.sleep(10 * units.HOUR)
        assert len(orch.alive_instances(service)) == 4


class TestBillingIntegration:
    def test_active_time_is_billed_on_disconnect(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.connect(service, 5)
        tiny_env.clock.sleep(100.0)
        orch.disconnect(service)
        assert orch.accounts["account-1"].billing.total_usd > 0

    def test_idle_time_not_billed(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.connect(service, 5)
        orch.disconnect(service)
        billed_at_disconnect = orch.accounts["account-1"].billing.total_usd
        tiny_env.clock.sleep(300.0)
        assert orch.accounts["account-1"].billing.total_usd == billed_at_disconnect

    def test_accrued_cost_visible_while_active(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.connect(service, 5)
        tiny_env.clock.sleep(100.0)
        assert orch.account_cost_usd("account-1") > 0

    def test_larger_containers_cost_more(self, tiny_env_factory):
        from repro.cloud.services import LARGE, SMALL

        def cost_for(size):
            env = tiny_env_factory()
            orch = env.orchestrator
            service = orch.deploy_service(
                "account-1", ServiceConfig(name="s", size=size, max_instances=100)
            )
            orch.connect(service, 5)
            env.clock.sleep(100.0)
            orch.disconnect(service)
            return orch.accounts["account-1"].billing.total_usd

        assert cost_for(LARGE) > 3 * cost_for(SMALL)


class TestGroundTruth:
    def test_true_host_of_matches_instance(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        instance = orch.connect(service, 1)[0]
        assert orch.true_host_of(instance.instance_id) == instance.host_id


class TestScaleTo:
    def test_partial_idle_reuse_leaves_extras_idle(self, tiny_env):
        """Scaling out by less than the idle pool must reactivate only the
        needed instances; extras stay idle (and free) awaiting the reaper."""
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.connect(service, 10)
        orch.disconnect(service)
        active = orch.scale_to(service, 4)
        assert len(active) == 4
        states = [i.state.value for i in orch.alive_instances(service)]
        assert states.count("active") == 4
        assert states.count("idle") == 6

    def test_scale_beyond_idle_creates_new(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.connect(service, 5)
        orch.disconnect(service)
        active = orch.scale_to(service, 8)
        assert len(active) == 8
        assert len(orch.alive_instances(service)) == 8

    def test_scale_to_zero_equals_disconnect(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.connect(service, 6)
        assert orch.scale_to(service, 0) == []
        states = {i.state.value for i in orch.alive_instances(service)}
        assert states == {"idle"}

    def test_scale_up_then_down_then_up(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        orch.scale_to(service, 10)
        orch.scale_to(service, 3)
        active = orch.scale_to(service, 7)
        assert len(active) == 7
        # No new creations were needed: the seven come from the original 10.
        assert len(orch.alive_instances(service)) == 10


class TestColdStartLatency:
    def test_gen2_cold_start_slower_than_gen1(self, tiny_env_factory):
        """Paper §2.3: Gen 2's larger footprint means longer start-up."""

        def startup(generation):
            env = tiny_env_factory()
            service = env.orchestrator.deploy_service(
                "account-1",
                ServiceConfig(name="boot", generation=generation, max_instances=100),
            )
            t0 = env.clock.now()
            env.orchestrator.connect(service, 20)
            return env.clock.now() - t0

        assert startup("gen2") > 1.5 * startup("gen1")

"""Integration: attacking a victim whose fleet follows live traffic."""


from repro import units
from repro.cloud.services import ServiceConfig
from repro.cloud.workloads import BurstLoad
from repro.core.attack.strategies import optimized_launch

from tests.conftest import follow_pattern


def prime_attacker(env):
    outcome = optimized_launch(
        env.attacker,
        n_services=2,
        launches=4,
        instances_per_service=16,
        interval_s=10 * units.MINUTE,
    )
    return {
        env.orchestrator.true_host_of(h.instance_id)
        for h in outcome.handles
        if h.alive
    }, outcome


class TestWorkloadDrivenVictim:
    def test_coverage_holds_through_scale_out(self, tiny_env):
        attacker_hosts, _outcome = prime_attacker(tiny_env)
        service = tiny_env.orchestrator.deploy_service(
            "account-2", ServiceConfig(name="bursty", max_instances=40)
        )
        pattern = BurstLoad(
            base=4, burst=30, burst_start_s=120.0, burst_duration_s=240.0
        )
        follow_pattern(tiny_env.orchestrator, service, pattern, 300.0)
        victims = tiny_env.orchestrator.alive_instances(service)
        assert len(victims) >= 30  # mid-burst fleet
        covered = sum(1 for i in victims if i.host_id in attacker_hosts)
        assert covered / len(victims) > 0.5

    def test_scaled_out_victims_land_on_same_base_hosts(self, tiny_env):
        """Scale-out replacements stay on the victim's base hosts, so a
        resident attacker keeps covering new instances without re-priming."""
        orch = tiny_env.orchestrator
        service = orch.deploy_service(
            "account-2", ServiceConfig(name="grow", max_instances=40)
        )
        orch.scale_to(service, 5)
        small = {i.host_id for i in orch.alive_instances(service)}
        orch.scale_to(service, 40)
        big = {i.host_id for i in orch.alive_instances(service)}
        base = set(tiny_env.datacenter.shard_hosts(1))
        assert small <= base
        assert big <= base

    def test_residency_plus_victim_churn(self, tiny_env):
        """Attacker holds residency with keep-alive blips while the victim
        churns through two full scale cycles."""
        attacker = tiny_env.attacker
        attacker_hosts, outcome = prime_attacker(tiny_env)
        for name in outcome.service_names:
            attacker.disconnect(name)

        def keep_alive(duration_s, refresh_period_s=90.0):
            # Reconnect the released fleet for a 1 s blip every refresh,
            # well inside the idle grace, then release it again.
            end = attacker.now() + duration_s
            while attacker.now() < end:
                tick = attacker.now()
                for name in outcome.service_names:
                    attacker.connect(name, 16)
                    attacker.wait(1.0)
                    attacker.disconnect(name)
                attacker.wait(max(0.0, tick + refresh_period_s - attacker.now()))

        orch = tiny_env.orchestrator
        service = orch.deploy_service(
            "account-2", ServiceConfig(name="cycler", max_instances=40)
        )
        for _cycle in range(2):
            orch.scale_to(service, 30)
            keep_alive(10 * units.MINUTE)
            orch.scale_to(service, 3)
            keep_alive(10 * units.MINUTE)
        victims = orch.alive_instances(service)
        attacker_now = {
            instance.host_id
            for name in outcome.service_names
            for instance in orch.alive_instances(
                orch.services[f"account-1/{name}"]
            )
        }
        covered = sum(1 for i in victims if i.host_id in attacker_now)
        assert victims
        assert covered / len(victims) > 0.5

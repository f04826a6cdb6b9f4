"""Unit tests for orchestrator behaviors beyond the basics: dynamic
placement scatter, helper recruitment integration, startup slowdown, and
per-service bookkeeping."""


from repro.cloud.services import ServiceConfig
from repro.experiments.base import default_env

from tests.conftest import tiny_profile


def deploy_and_connect(env, n, name="svc", account="account-1"):
    client = env.clients[account]
    service_name = client.deploy(ServiceConfig(name=name, max_instances=max(100, n)))
    handles = client.connect(service_name, n)
    return client, service_name, handles


class TestDynamicScatter:
    def make_env(self, dynamism):
        profile = tiny_profile(
            dynamic_placement=True,
            default_dynamism=dynamism,
            plan=tiny_profile().plan,
        )
        return default_env(profile=profile, seed=9)

    def test_zero_dynamism_stays_on_base(self):
        env = default_env(profile=tiny_profile(), seed=9)
        _c, _s, handles = deploy_and_connect(env, 40, account="account-2")
        base = set(env.datacenter.shard_hosts(1))
        hosts = {env.orchestrator.true_host_of(h.instance_id) for h in handles}
        assert hosts <= base

    def test_dynamism_scatters_a_fraction(self):
        profile = tiny_profile(dynamic_placement=True, default_dynamism=0.5)
        env = default_env(profile=profile, seed=9)
        # Unpinned account -> default dynamism applies.
        from repro.cloud.accounts import Account
        from repro.cloud.api import FaaSClient

        env.orchestrator.register_account(Account("stranger"))
        client = FaaSClient(env.orchestrator, "stranger")
        name = client.deploy(ServiceConfig(name="dyn", max_instances=100))
        handles = client.connect(name, 60)
        shard = env.datacenter.shard_for_account("stranger")
        base = set(env.datacenter.shard_hosts(shard))
        hosts = [env.orchestrator.true_host_of(h.instance_id) for h in handles]
        scattered = sum(1 for h in hosts if h not in base)
        assert 10 < scattered < 50  # ~50% of 60

    def test_pinned_dynamism_overrides_default(self):
        profile = tiny_profile(
            dynamic_placement=True,
            default_dynamism=0.9,
            plan=type(tiny_profile().plan)(
                account_shards={"account-1": 0},
                account_dynamism={"account-1": 0.0},
            ),
        )
        env = default_env(profile=profile, seed=9)
        _c, _s, handles = deploy_and_connect(env, 30)
        base = set(env.datacenter.shard_hosts(0))
        hosts = {env.orchestrator.true_host_of(h.instance_id) for h in handles}
        assert hosts <= base


class TestStartupLatency:
    def test_more_instances_take_longer(self, tiny_env_factory):
        def startup_time(n):
            env = tiny_env_factory()
            client = env.clients["account-1"]
            name = client.deploy(ServiceConfig(name="s", max_instances=1000))
            t0 = client.now()
            client.connect(name, n)
            return client.now() - t0

        assert startup_time(50) < startup_time(150)

    def test_slowdown_near_instance_cap(self, tiny_env_factory):
        """Paper §4.4.1: instance creation slows as the count nears 1000."""

        def per_instance_time(n):
            env = tiny_env_factory()
            # Give hosts enough capacity for large fleets.
            env.datacenter.fleet.capacity_slots[:] = 10_000.0
            client = env.clients["account-1"]
            name = client.deploy(ServiceConfig(name="s", max_instances=1000))
            t0 = client.now()
            client.connect(name, n)
            return (client.now() - t0) / n

        assert per_instance_time(900) > per_instance_time(300)


class TestServiceBookkeeping:
    def test_host_counts_decrease_on_termination(self, tiny_env):
        client, name, handles = deploy_and_connect(tiny_env, 20)
        orch = tiny_env.orchestrator
        index = orch.instance_store.index_of(client._service(name).qualified_name)

        def placed():
            return int(orch.instance_store.host_counts(index, orch.fleet.all_indices).sum())

        assert placed() == 20
        client.kill(name)
        assert placed() == 0

    def test_load_slots_released_on_termination(self, tiny_env):
        client, name, handles = deploy_and_connect(tiny_env, 20)
        orch = tiny_env.orchestrator
        host_id = orch.true_host_of(handles[0].instance_id)
        assert orch.host_load_slots(host_id) > 0
        client.kill(name)
        assert orch.host_load_slots(host_id) == 0.0

    def test_relaunch_balances_counting_survivors(self, tiny_env):
        """After partial reaping, a relaunch tops existing hosts up evenly
        instead of stacking everything on the survivors' hosts."""
        client, name, first = deploy_and_connect(tiny_env, 20)
        client.disconnect(name)
        profile = tiny_env.datacenter.profile
        midpoint = (profile.idle_grace + profile.idle_deadline) / 2
        client.wait(midpoint)
        survivors = [h for h in first if h.alive]
        assert 0 < len(survivors) < 20
        second = client.connect(name, 20)
        orch = tiny_env.orchestrator
        from collections import Counter

        counts = Counter(orch.true_host_of(h.instance_id) for h in second)
        assert max(counts.values()) - min(counts.values()) <= 2


class TestIdleReapLifecycle:
    """Every idle instance has exactly one pending reap, and reuse or kill
    cancels it.  Pending reaps share one scheduler entry, and stale ones
    are dropped in bulk: a long campaign of connect/disconnect cycles
    must not pile dead reaps up forever."""

    def test_disconnect_schedules_one_reap_per_idle_instance(self, tiny_env):
        client, name, handles = deploy_and_connect(tiny_env, 10)
        orch = tiny_env.orchestrator
        assert orch.pending_reaps() == 0
        assert orch.scheduler.pending() == 0
        client.disconnect(name)
        service = client._service(name)
        assert orch.idle_count(service) == 10
        assert orch.pending_reaps() == 10
        # All ten reaps wait behind a single scheduler entry.
        assert orch.scheduler.pending() == 1

    def test_reconnect_cancels_reaps_of_reused_instances(self, tiny_env):
        client, name, handles = deploy_and_connect(tiny_env, 10)
        orch = tiny_env.orchestrator
        client.disconnect(name)
        client.connect(name, 10)  # reuses the still-warm idle instances
        reused = sum(1 for h in handles if h.alive)
        assert reused > 0
        service = client._service(name)
        assert orch.pending_reaps() == orch.idle_count(service) == 10 - reused

    def test_kill_cancels_pending_reaps(self, tiny_env):
        client, name, _handles = deploy_and_connect(tiny_env, 10)
        orch = tiny_env.orchestrator
        client.disconnect(name)
        client.kill(name)
        assert orch.pending_reaps() == 0
        # The woken reaper finds only cancelled reaps and terminates nothing.
        terminated = []
        for handle in _handles:
            handle.on_sigterm(terminated.append)
        client.wait(tiny_env.datacenter.profile.idle_deadline + 1.0)
        assert terminated == []
        assert orch.scheduler.pending() == 0

    def test_fired_reaps_clear_their_registry_entries(self, tiny_env):
        client, name, handles = deploy_and_connect(tiny_env, 10)
        orch = tiny_env.orchestrator
        client.disconnect(name)
        profile = tiny_env.datacenter.profile
        client.wait(profile.idle_deadline + 1.0)
        assert not any(h.alive for h in handles)
        assert orch.pending_reaps() == 0
        assert orch.scheduler.pending() == 0
        assert (orch.instance_store.reap_seq[: orch.instance_store.n_rows] == -1).all()

    def test_churn_does_not_grow_scheduler_queue(self, tiny_env):
        client, name, _handles = deploy_and_connect(tiny_env, 8)
        orch = tiny_env.orchestrator
        for _ in range(30):
            client.disconnect(name)
            client.connect(name, 8)
        # Cancelled reaps from every cycle must not accumulate: the queue
        # holds at most the live reaps plus a bounded stale remainder.
        assert orch.pending_reaps() <= 8
        assert len(orch._reaps) <= 8 + 64
        assert orch.scheduler.pending() <= 8

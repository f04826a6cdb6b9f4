"""Regression tests for the autoscale/idle-path bugfix sweep.

Pins the semantics the background-traffic engine leans on:

* scale-in always idles the *most recently created* instances, so the
  ACTIVE set is a creation-ordered prefix of the alive list;
* ``orchestrator.scale_in`` emits a telemetry span with the idled count;
* ``connect`` packs connections at the service's configured per-instance
  concurrency instead of assuming one connection per instance.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.fleet import InstanceState
from repro.cloud.services import ServiceConfig
from repro.experiments.base import default_env
from repro.telemetry import Telemetry, telemetry_context

from tests.conftest import tiny_profile


def deploy(env, account="account-1", **config):
    config.setdefault("max_instances", 100)
    return env.orchestrator.deploy_service(
        account, ServiceConfig(name="svc", **config)
    )


class TestScaleInOrdering:
    def test_scale_in_idles_most_recent_instances(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        created = orch.connect(service, 10)
        kept = orch.scale_to(service, 4)
        assert [i.instance_id for i in kept] == [
            i.instance_id for i in created[:4]
        ]
        idled = [i for i in created if i.state is InstanceState.IDLE]
        assert [i.instance_id for i in idled] == [
            i.instance_id for i in created[4:]
        ]

    def test_scale_out_reactivates_oldest_idles_first(self, tiny_env):
        orch = tiny_env.orchestrator
        service = deploy(tiny_env)
        created = orch.connect(service, 10)
        orch.scale_to(service, 3)
        active = orch.scale_to(service, 7)
        # 3 stayed active, idles 3..6 were reused in creation order.
        assert [i.instance_id for i in active] == [
            i.instance_id for i in created[:7]
        ]

    @settings(max_examples=25, deadline=None)
    @given(targets=st.lists(st.integers(0, 12), min_size=1, max_size=8))
    def test_active_set_is_always_a_creation_prefix(self, targets):
        env = default_env(profile=tiny_profile(), seed=42)
        orch = env.orchestrator
        service = deploy(env)
        for target in targets:
            returned = orch.scale_to(service, target, sleep_startup=False)
            alive = orch.alive_instances(service)
            prefix = alive[:target]
            assert [i.instance_id for i in returned] == [
                i.instance_id for i in prefix
            ]
            assert all(i.state is InstanceState.ACTIVE for i in prefix)
            assert all(
                i.state is InstanceState.IDLE for i in alive[target:]
            )


class TestScaleInSpan:
    def test_scale_in_emits_span_and_counter(self, tiny_env_factory):
        telemetry = Telemetry()
        with telemetry_context(telemetry):
            env = tiny_env_factory()
            orch = env.orchestrator
            service = deploy(env)
            orch.connect(service, 9)
            orch.scale_to(service, 2)
        spans = [
            s for s in telemetry.records() if s.name == "orchestrator.scale_in"
        ]
        assert len(spans) == 1
        assert spans[0].attrs["service"] == service.qualified_name
        assert spans[0].attrs["idled"] == 7
        assert telemetry.metrics.counter("orchestrator.scale_ins") == 1


class TestConnectConcurrency:
    def test_connect_packs_at_configured_concurrency(self, tiny_env):
        service = deploy(tiny_env, concurrency=8)
        instances = tiny_env.orchestrator.connect(service, 100)
        assert len(instances) == 13  # ceil(100 / 8)
        assert all(i.state is InstanceState.ACTIVE for i in instances)

    def test_connect_exact_multiple(self, tiny_env):
        service = deploy(tiny_env, concurrency=4)
        assert len(tiny_env.orchestrator.connect(service, 16)) == 4


"""Unit tests for container instance lifecycle."""

import numpy as np
import pytest

from repro.cloud.instance import ContainerInstance, InstanceState
from repro.cloud.services import Service, ServiceConfig
from repro.errors import InstanceGoneError
from repro.sandbox.gvisor import GVisorSandbox
from repro.simtime.clock import SimClock

from tests.conftest import make_host


def make_instance(clock=None):
    clock = clock or SimClock()
    host = make_host()
    sandbox = GVisorSandbox(host, clock, np.random.default_rng(0), "i-1")
    service = Service(config=ServiceConfig(name="s"), account_id="a", image_id="img")
    return (
        ContainerInstance(
            instance_id="i-1",
            service=service,
            host_id=host.host_id,
            sandbox=sandbox,
            created_at=clock.now(),
        ),
        clock,
    )


class TestLifecycle:
    def test_starts_active(self):
        instance, _clock = make_instance()
        assert instance.state is InstanceState.ACTIVE
        assert instance.alive

    def test_go_idle_accumulates_active_time(self):
        instance, clock = make_instance()
        clock.sleep(30.0)
        instance.go_idle(clock.now())
        assert instance.state is InstanceState.IDLE
        assert instance.active_seconds_total == pytest.approx(30.0)

    def test_idle_then_active_again(self):
        instance, clock = make_instance()
        clock.sleep(10.0)
        instance.go_idle(clock.now())
        clock.sleep(100.0)
        instance.go_active(clock.now())
        clock.sleep(5.0)
        instance.go_idle(clock.now())
        # Idle gaps do not bill: 10 + 5 seconds of activity.
        assert instance.active_seconds_total == pytest.approx(15.0)

    def test_terminate_closes_active_period(self):
        instance, clock = make_instance()
        clock.sleep(20.0)
        instance.terminate(clock.now())
        assert not instance.alive
        assert instance.active_seconds_total == pytest.approx(20.0)

    def test_terminate_idempotent(self):
        instance, clock = make_instance()
        instance.terminate(clock.now())
        instance.terminate(clock.now())
        assert not instance.alive

    def test_sigterm_callback_receives_time(self):
        instance, clock = make_instance()
        seen = []
        instance.on_sigterm = seen.append
        clock.sleep(7.0)
        instance.terminate(clock.now())
        assert seen == [clock.now()]

    def test_sigterm_not_fired_twice(self):
        instance, clock = make_instance()
        seen = []
        instance.on_sigterm = seen.append
        instance.terminate(clock.now())
        instance.terminate(clock.now())
        assert len(seen) == 1

    def test_operations_on_terminated_rejected(self):
        instance, clock = make_instance()
        instance.terminate(clock.now())
        with pytest.raises(InstanceGoneError):
            instance.go_idle(clock.now())
        with pytest.raises(InstanceGoneError):
            instance.go_active(clock.now())
        with pytest.raises(InstanceGoneError):
            instance.require_alive()

    def test_terminate_frees_an_eager_sandbox(self):
        instance, clock = make_instance()
        sandbox = instance.sandbox
        assert instance.run_probe(lambda s: s) is sandbox
        instance.terminate(clock.now())
        with pytest.raises(InstanceGoneError):
            instance.sandbox
        assert instance.sandbox_class is GVisorSandbox

    def test_needs_exactly_one_of_sandbox_and_boot(self):
        with pytest.raises(TypeError):
            ContainerInstance("i-2", None, "h", None, 0.0)

"""Unit tests for container instance lifecycle: one-row stores."""

import numpy as np
import pytest

from repro.cloud.services import Service, ServiceConfig
from repro.errors import InstanceGoneError
from repro.fleet import InstanceState, InstanceStore
from repro.sandbox.gvisor import GVisorSandbox
from repro.simtime.clock import SimClock

from tests.conftest import make_host

ROW = np.array([0])


def make_instance(clock=None):
    clock = clock or SimClock()
    store = InstanceStore(clock, [make_host()])
    service = Service(config=ServiceConfig(name="s"), account_id="a", image_id="img")
    index = store.service_index("a/s", service)
    (instance,) = store.column(
        store.launch(index, [0], [1], [0], clock.now(), clock.now(), GVisorSandbox)
    )
    return instance, store, clock


class TestLifecycle:
    def test_starts_active(self):
        instance, store, _clock = make_instance()
        assert instance.state is InstanceState.ACTIVE
        assert instance.alive
        assert store.active_count(0) == 1

    def test_go_idle_accumulates_active_time(self):
        instance, store, clock = make_instance()
        clock.sleep(30.0)
        store.idle(0, ROW, clock.now())
        assert instance.state is InstanceState.IDLE
        assert store.active_total[0] == pytest.approx(30.0)
        assert np.isnan(store.active_since[0])
        assert store.last_active_at[0] == clock.now()
        assert store.idle_count(0) == 1

    def test_idle_then_active_again(self):
        instance, store, clock = make_instance()
        clock.sleep(10.0)
        store.idle(0, ROW, clock.now())
        clock.sleep(100.0)
        store.activate(0, ROW, clock.now())
        clock.sleep(5.0)
        store.idle(0, ROW, clock.now())
        # Idle gaps do not bill: 10 + 5 seconds of activity.
        assert store.active_total[0] == pytest.approx(15.0)

    def test_terminate_closes_active_period(self):
        instance, store, clock = make_instance()
        clock.sleep(20.0)
        store.terminate(ROW, clock.now())
        assert not instance.alive
        assert instance.state is InstanceState.TERMINATED
        assert store.active_total[0] == pytest.approx(20.0)
        assert store.alive_count(0) == 0

    def test_terminate_idempotent(self):
        instance, store, clock = make_instance()
        rows, _booted = store.terminate(ROW, clock.now())
        assert rows.tolist() == [0]
        rows, _booted = store.terminate(ROW, clock.now())
        assert rows.size == 0
        assert not instance.alive
        assert store.alive_count(0) == 0

    def test_sigterm_callback_receives_time(self):
        instance, store, clock = make_instance()
        seen = []
        instance.on_sigterm = seen.append
        clock.sleep(7.0)
        store.terminate(ROW, clock.now())
        assert seen == [clock.now()]

    def test_sigterm_not_fired_twice(self):
        instance, store, clock = make_instance()
        seen = []
        instance.on_sigterm = seen.append
        store.terminate(ROW, clock.now())
        store.terminate(ROW, clock.now())
        assert len(seen) == 1

    def test_operations_on_terminated_rejected(self):
        instance, store, clock = make_instance()
        store.terminate(ROW, clock.now())
        with pytest.raises(InstanceGoneError):
            instance.require_alive()
        with pytest.raises(InstanceGoneError):
            instance.sandbox
        with pytest.raises(InstanceGoneError):
            instance.run_probe(lambda sandbox: sandbox)

    def test_terminate_frees_an_eager_sandbox(self):
        instance, store, clock = make_instance()
        sandbox = instance.sandbox
        assert instance.run_probe(lambda s: s) is sandbox
        _rows, booted = store.terminate(ROW, clock.now())
        assert booted == [instance]
        with pytest.raises(InstanceGoneError):
            instance.sandbox
        assert instance.sandbox_class is GVisorSandbox

    def test_sandbox_boots_from_the_row(self):
        instance, store, clock = make_instance()
        launched_at = clock.now()
        clock.sleep(60.0)
        sandbox = instance.sandbox
        assert sandbox.boot_wall_time == launched_at
        assert sandbox.sandbox_id == "a/s#0000001"
        assert str(sandbox._rng.bit_generator.state) != str(
            np.random.default_rng(0).bit_generator.state
        )  # the syscall layer drew its clock offset at boot
        assert instance.sandbox is sandbox

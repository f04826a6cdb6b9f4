"""Unit tests for the emulated system calls of a sandbox: ``clock_gettime``
(:meth:`Sandbox.wall_clock`) and ``nanosleep`` (:meth:`Sandbox.sleep`)."""

import pytest

from repro.hardware.noise import problematic_noise_model
from repro.sandbox.gvisor import GVisorSandbox

from tests.conftest import make_host, row_sandbox


def make_layer(host=None, seed=1):
    sandbox = row_sandbox(GVisorSandbox, host, seed=seed)
    return sandbox, sandbox._clock


class TestClockGettime:
    def test_tracks_true_time(self):
        layer, clock = make_layer()
        assert layer.wall_clock() == pytest.approx(clock.now(), abs=0.05)

    def test_counts_calls(self):
        layer, _clock = make_layer()
        for _ in range(5):
            layer.wall_clock()
        assert layer.call_count == 5

    def test_sandbox_offset_constant_across_calls(self):
        layer, _clock = make_layer()
        offset = layer.sandbox_offset
        readings = [layer.wall_clock() for _ in range(50)]
        for reading in readings:
            assert reading == pytest.approx(_clock_now(layer) + offset, abs=1e-3)

    def test_quiet_host_calls_differ_by_nanoseconds(self):
        layer, _clock = make_layer()
        readings = [layer.wall_clock() for _ in range(100)]
        spread = max(readings) - min(readings)
        assert spread < 5e-6

    def test_problematic_host_calls_differ_by_microseconds(self):
        host = make_host()
        host.syscall_noise = problematic_noise_model()
        layer, _clock = make_layer(host)
        readings = [layer.wall_clock() for _ in range(200)]
        spread = max(readings) - min(readings)
        assert spread > 1e-6


def _clock_now(layer):
    return layer._clock.now()


class TestNanosleep:
    def test_sleeps_at_least_requested(self):
        layer, clock = make_layer()
        t0 = clock.now()
        layer.sleep(2.0)
        assert clock.now() >= t0 + 2.0

    def test_overshoot_is_small(self):
        layer, clock = make_layer()
        t0 = clock.now()
        layer.sleep(1.0)
        assert clock.now() - t0 < 1.01

    def test_negative_duration_clamped(self):
        layer, clock = make_layer()
        t0 = clock.now()
        layer.sleep(-5.0)
        assert clock.now() >= t0

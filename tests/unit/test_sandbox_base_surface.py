"""Unit tests for the shared sandbox surface (base-class behaviors)."""


from repro.sandbox.gvisor import GVisorSandbox
from repro.sandbox.microvm import MicroVMSandbox
from repro.simtime.clock import SimClock

from tests.conftest import make_host, row_sandbox


def both_generations(host=None, clock=None):
    host = host or make_host()
    clock = clock or SimClock()
    return [
        row_sandbox(GVisorSandbox, host, clock, seed=1, key="g1"),
        row_sandbox(MicroVMSandbox, host, clock, seed=2, key="g2"),
    ], host


class TestSharedSurface:
    def test_cpuid_tsc_leaf_hidden_everywhere(self):
        sandboxes, _host = both_generations()
        for sandbox in sandboxes:
            assert sandbox.cpuid_tsc_frequency() is None

    def test_bus_pressure_surface(self):
        sandboxes, host = both_generations()
        for sandbox in sandboxes:
            sandbox.start_channel_pressure("bus")
        assert host.memory_bus.pressurer_count == 2
        level = sandboxes[0].observe_channel_contention("bus")
        assert level >= 1
        for sandbox in sandboxes:
            sandbox.stop_channel_pressure("bus")
        assert host.memory_bus.pressurer_count == 0

    def test_rng_and_bus_domains_are_independent(self):
        sandboxes, host = both_generations()
        sandboxes[0].start_channel_pressure("rng")
        assert host.memory_bus.pressurer_count == 0
        assert host.rng_resource.pressurer_count == 1
        sandboxes[0].stop_channel_pressure("rng")

    def test_boot_wall_time_recorded(self):
        clock = SimClock()
        clock.sleep(123.0)
        sandboxes, _host = both_generations(clock=clock)
        for sandbox in sandboxes:
            assert sandbox.boot_wall_time == clock.now()

"""Unit tests for the Gen 1 (gVisor) sandbox."""

import pytest

from repro import units
from repro.errors import PrivilegeError
from repro.sandbox.base import TscPolicy
from repro.sandbox.gvisor import GVisorSandbox
from repro.simtime.clock import SimClock

from tests.conftest import make_host, row_sandbox
from tests.oracles.ctest import observe_contention


def make_sandbox(host=None, clock=None, policy=TscPolicy.NATIVE, seed=5, sid="sb-1"):
    host = host or make_host()
    clock = clock or SimClock()
    return row_sandbox(GVisorSandbox, host, clock, seed, policy, key=sid), host, clock


class TestGVisorSandbox:
    def test_generation_tag(self):
        sandbox, _h, _c = make_sandbox()
        assert sandbox.generation == "gen1"

    def test_rdtsc_returns_raw_host_tsc(self):
        sandbox, host, clock = make_sandbox()
        assert sandbox.rdtsc() == host.tsc.read(clock.now())

    def test_rdtsc_advances_with_time(self):
        sandbox, host, clock = make_sandbox()
        before = sandbox.rdtsc()
        clock.sleep(1.0)
        after = sandbox.rdtsc()
        assert after - before == pytest.approx(host.tsc.actual_frequency_hz, rel=1e-9)

    def test_cpuid_exposes_real_host_model(self):
        sandbox, host, _c = make_sandbox()
        assert sandbox.cpuid_model() == host.cpu.name

    def test_cpuid_tsc_leaf_not_enumerated(self):
        sandbox, _h, _c = make_sandbox()
        assert sandbox.cpuid_tsc_frequency() is None

    def test_proc_cpuinfo_conceals_model(self):
        sandbox, host, _c = make_sandbox()
        assert sandbox.proc_cpuinfo_model() != host.cpu.name

    def test_proc_uptime_is_sandbox_relative(self):
        sandbox, host, clock = make_sandbox()
        clock.sleep(30.0)
        assert sandbox.proc_uptime() == pytest.approx(30.0)
        # Host uptime is 10 days; the sandbox must not reveal it.
        assert sandbox.proc_uptime() < 0.001 * host.tsc.uptime(clock.now())

    def test_kernel_tsc_khz_unavailable(self):
        sandbox, _h, _c = make_sandbox()
        with pytest.raises(PrivilegeError):
            sandbox.kernel_tsc_khz()

    def test_wall_clock_is_close_to_true_time(self):
        sandbox, _h, clock = make_sandbox()
        assert sandbox.wall_clock() == pytest.approx(clock.now(), abs=0.05)

    def test_wall_clock_offset_consistent_within_sandbox(self):
        """Per-sandbox offset is constant; only tiny per-call jitter varies."""
        sandbox, _h, _c = make_sandbox()
        readings = [sandbox.wall_clock() for _ in range(20)]
        assert max(readings) - min(readings) < 1e-3

    def test_two_sandboxes_have_different_offsets(self):
        host = make_host()
        clock = SimClock()
        s1, _, _ = make_sandbox(host, clock, seed=1, sid="a")
        s2, _, _ = make_sandbox(host, clock, seed=2, sid="b")
        assert s1.sandbox_offset != s2.sandbox_offset

    def test_sleep_advances_wall_clock(self):
        sandbox, _h, clock = make_sandbox()
        t0 = clock.now()
        sandbox.sleep(2.0)
        assert clock.now() >= t0 + 2.0

    def test_rng_pressure_and_observe(self):
        host = make_host()
        host.rng_resource.background_rate = 0.0
        host.rng_resource.drop_rate = 0.0
        clock = SimClock()
        s1, _, _ = make_sandbox(host, clock, sid="a")
        s2, _, _ = make_sandbox(host, clock, sid="b")
        s1.start_channel_pressure("rng")
        s2.start_channel_pressure("rng")
        assert observe_contention(s1, "rng") == 2
        s2.stop_channel_pressure("rng")
        assert observe_contention(s1, "rng") == 1


class TestGVisorTscMitigation:
    def test_emulated_tsc_starts_near_zero(self):
        sandbox, _h, _c = make_sandbox(policy=TscPolicy.EMULATED)
        assert sandbox.rdtsc() == 0

    def test_emulated_tsc_ticks_at_reported_frequency(self):
        sandbox, host, clock = make_sandbox(policy=TscPolicy.EMULATED)
        clock.sleep(1.0)
        assert sandbox.rdtsc() == int(host.cpu.reported_tsc_frequency_hz)

    def test_emulated_tsc_hides_host_boot_time(self):
        """Deriving T_boot from an emulated TSC recovers the *sandbox*
        boot time, not the host's — the mitigation works."""
        sandbox, host, clock = make_sandbox(policy=TscPolicy.EMULATED)
        clock.sleep(5.0)
        tsc = sandbox.rdtsc()
        derived = clock.now() - tsc / host.cpu.reported_tsc_frequency_hz
        assert abs(derived - sandbox.boot_wall_time) < 0.01
        assert abs(derived - host.boot_time) > 1 * units.DAY

    def test_emulated_tsc_charges_syscall_cost(self):
        sandbox, _h, _c = make_sandbox(policy=TscPolicy.EMULATED)
        calls_before = sandbox.call_count
        sandbox.rdtsc()
        assert sandbox.call_count == calls_before + 1

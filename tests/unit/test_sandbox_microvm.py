"""Unit tests for the Gen 2 (microVM) sandbox."""

import pytest

from repro import units
from repro.sandbox.base import TscPolicy
from repro.sandbox.microvm import MicroVMSandbox
from repro.simtime.clock import SimClock

from tests.conftest import make_host, row_sandbox


def make_vm(host=None, clock=None, policy=TscPolicy.NATIVE, seed=5, sid="vm-1"):
    host = host or make_host()
    clock = clock or SimClock()
    vm = row_sandbox(MicroVMSandbox, host, clock, seed, policy, key=sid)
    return vm, host, clock


class TestMicroVMSandbox:
    def test_generation_tag(self):
        vm, _h, _c = make_vm()
        assert vm.generation == "gen2"

    def test_tsc_offsetting_zeroes_counter_at_guest_boot(self):
        vm, _h, _c = make_vm()
        assert vm.rdtsc() == 0

    def test_guest_tsc_ticks_at_host_actual_rate(self):
        vm, host, clock = make_vm()
        clock.sleep(10.0)
        expected = 10.0 * host.tsc.actual_frequency_hz
        assert vm.rdtsc() == pytest.approx(expected, rel=1e-9)

    def test_boot_time_fingerprinting_fails_in_gen2(self):
        """Eq. 4.1 on a Gen 2 guest recovers the guest VM's boot time."""
        vm, host, clock = make_vm()
        clock.sleep(60.0)
        derived = clock.now() - vm.rdtsc() / host.cpu.reported_tsc_frequency_hz
        assert abs(derived - vm.boot_wall_time) < 1.0
        assert abs(derived - host.boot_time) > 1 * units.DAY

    def test_cpuid_is_virtualized(self):
        vm, host, _c = make_vm()
        assert vm.cpuid_model() != host.cpu.name
        assert vm.cpuid_model() == MicroVMSandbox.VIRTUALIZED_MODEL

    def test_kernel_exports_refined_host_frequency(self):
        vm, host, _c = make_vm()
        assert vm.kernel_tsc_khz() * 1e3 == host.tsc.refined_frequency_hz()

    def test_refined_frequency_has_1khz_precision(self):
        vm, _h, _c = make_vm()
        khz = vm.kernel_tsc_khz()
        assert khz == round(khz)

    def test_colocated_guests_read_identical_refined_frequency(self):
        """The Gen 2 fingerprint cannot produce false negatives."""
        host = make_host(epsilon_hz=3721.0)
        clock = SimClock()
        vm1, _, _ = make_vm(host, clock, seed=1, sid="a")
        clock.sleep(123.0)
        vm2, _, _ = make_vm(host, clock, seed=2, sid="b")
        assert vm1.kernel_tsc_khz() == vm2.kernel_tsc_khz()

    def test_different_guests_different_offsets(self):
        host = make_host()
        clock = SimClock()
        vm1, _, _ = make_vm(host, clock, sid="a")
        clock.sleep(100.0)
        vm2, _, _ = make_vm(host, clock, sid="b")
        # Same instant read, different boot offsets.
        assert vm1.rdtsc() != vm2.rdtsc()

    def test_proc_uptime_is_guest_relative(self):
        vm, _h, clock = make_vm()
        clock.sleep(7.0)
        assert vm.proc_uptime() == pytest.approx(7.0)


class TestMicroVMTscMitigation:
    def test_emulated_policy_masks_refined_frequency(self):
        host = make_host(epsilon_hz=5000.0)
        vm, _, _ = make_vm(host, policy=TscPolicy.EMULATED)
        assert vm.kernel_tsc_khz() * 1e3 == host.cpu.reported_tsc_frequency_hz

    def test_emulated_policy_tsc_ticks_at_reported_rate(self):
        host = make_host(epsilon_hz=5000.0)
        vm, _, clock = make_vm(host, policy=TscPolicy.EMULATED)
        clock.sleep(1.0)
        assert vm.rdtsc() == int(host.cpu.reported_tsc_frequency_hz)

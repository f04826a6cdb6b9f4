"""Unit tests for the guest-side probe programs."""

import pytest

from repro import units
from repro.core import probes
from repro.sandbox.base import TscPolicy
from repro.sandbox.gvisor import GVisorSandbox
from repro.sandbox.microvm import MicroVMSandbox
from repro.simtime.clock import SimClock

from tests.conftest import make_host, row_sandbox


def gen1_sandbox(host=None, policy=TscPolicy.NATIVE):
    host = host or make_host()
    return row_sandbox(GVisorSandbox, host, tsc_policy=policy, key="g1")


def gen2_sandbox(host=None):
    host = host or make_host()
    return row_sandbox(MicroVMSandbox, host, key="g2")


class TestGen1Probe:
    def test_sample_fields(self):
        host = make_host()
        sample = probes.gen1_fingerprint_probe(gen1_sandbox(host))
        assert sample.cpu_model == host.cpu.name
        assert sample.reported_frequency_hz == host.cpu.reported_tsc_frequency_hz
        assert sample.tsc_value > 0

    def test_derived_boot_time_near_host_boot(self):
        """With a small frequency error, the derived boot time lands within
        seconds of the true host boot time."""
        host = make_host(boot_age_s=10 * units.DAY, epsilon_hz=1000.0)
        sample = probes.gen1_fingerprint_probe(gen1_sandbox(host))
        # Drift error: uptime * eps / f = 10d * 1e3/2e9 ~ 0.43 s.
        assert sample.boot_time() == pytest.approx(host.boot_time, abs=2.0)

    def test_colocated_probes_agree(self):
        host = make_host()
        clock = SimClock()
        s1 = row_sandbox(GVisorSandbox, host, clock, seed=1, key="a")
        s2 = row_sandbox(GVisorSandbox, host, clock, seed=2, key="b")
        b1 = probes.gen1_fingerprint_probe(s1).boot_time()
        b2 = probes.gen1_fingerprint_probe(s2).boot_time()
        assert b1 == pytest.approx(b2, abs=0.1)

    def test_mitigated_host_defeats_probe(self):
        """Under TSC emulation the derived 'boot time' is the sandbox's
        own creation time, which is useless as a host fingerprint."""
        host = make_host()
        sandbox = gen1_sandbox(host, policy=TscPolicy.EMULATED)
        sample = probes.gen1_fingerprint_probe(sandbox)
        assert abs(sample.boot_time() - host.boot_time) > units.DAY


class TestGen2Probe:
    def test_reads_refined_khz(self):
        host = make_host(epsilon_hz=2499.0)
        khz = probes.gen2_fingerprint_probe(gen2_sandbox(host))
        assert khz * units.KHZ == host.tsc.refined_frequency_hz()


class TestEnvironmentProbe:
    def test_gen1_environment_conceals_host(self):
        host = make_host()
        info = probes.environment_probe(gen1_sandbox(host))
        assert info["generation"] == "gen1"
        assert info["proc_cpuinfo_model"] != host.cpu.name
        assert info["proc_uptime"] < 60.0

    def test_gen2_environment(self):
        info = probes.environment_probe(gen2_sandbox())
        assert info["generation"] == "gen2"


class TestMeasuredFrequencyProbe:
    def test_returns_estimate(self):
        estimate = probes.measured_frequency_probe(gen1_sandbox(), repetitions=5)
        assert estimate.repetitions == 5
        assert estimate.mean_hz > 1e9

"""Unit tests for TSC frequency acquisition (§4.2)."""

import pytest

from repro import units
from repro.core.frequency import measure_tsc_frequency, reported_tsc_frequency
from repro.errors import FingerprintError
from repro.sandbox.gvisor import GVisorSandbox

from tests.conftest import make_host, row_sandbox


def make_sandbox(host=None, seed=3):
    host = host or make_host()
    return row_sandbox(GVisorSandbox, host, seed=seed)


class TestReportedFrequency:
    def test_falls_back_to_model_name(self):
        sandbox = make_sandbox()
        assert reported_tsc_frequency(sandbox) == pytest.approx(2.0 * units.GHZ)

    def test_raises_without_frequency_source(self):
        host = make_host()
        object.__setattr__(host.cpu, "name", None) if False else None
        sandbox = make_sandbox(host)
        sandbox.cpuid_model = lambda: "Mystery CPU"  # no labeled frequency
        with pytest.raises(FingerprintError):
            reported_tsc_frequency(sandbox)

    def test_reported_deviates_from_actual(self):
        """The whole point of §4.2: the reported frequency is slightly off."""
        host = make_host(epsilon_hz=2000.0)
        sandbox = make_sandbox(host)
        reported = reported_tsc_frequency(sandbox)
        assert reported != host.tsc.actual_frequency_hz
        assert reported - host.tsc.actual_frequency_hz == pytest.approx(2000.0)


class TestMeasuredFrequency:
    def test_quiet_host_measures_accurately(self):
        host = make_host(epsilon_hz=5000.0)
        sandbox = make_sandbox(host)
        estimate = measure_tsc_frequency(sandbox, interval_s=0.1, repetitions=10)
        assert estimate.mean_hz == pytest.approx(host.tsc.actual_frequency_hz, abs=2000)
        assert estimate.std_hz < 200.0  # paper: < 100 Hz on most hosts

    def test_problematic_host_measures_noisily(self):
        from repro.hardware.noise import problematic_noise_model

        host = make_host(epsilon_hz=5000.0)
        host.syscall_noise = problematic_noise_model()
        host.problematic_timing = True
        sandbox = make_sandbox(host)
        estimate = measure_tsc_frequency(sandbox, interval_s=0.1, repetitions=10)
        assert estimate.std_hz > 10 * units.KHZ  # paper: 10 kHz .. MHz

    def test_repetition_count(self):
        sandbox = make_sandbox()
        estimate = measure_tsc_frequency(sandbox, repetitions=7)
        assert estimate.repetitions == 7

    def test_requires_two_repetitions(self):
        sandbox = make_sandbox()
        with pytest.raises(FingerprintError):
            measure_tsc_frequency(sandbox, repetitions=1)

    def test_measurement_consumes_wall_time(self):
        sandbox = make_sandbox()
        t0 = sandbox._clock.now()
        measure_tsc_frequency(sandbox, interval_s=0.1, repetitions=5)
        assert sandbox._clock.now() >= t0 + 0.45

    def test_measured_beats_reported_for_drift(self):
        """The measured frequency tracks the actual one, so boot times
        derived from it do not drift (the §4.2 trade-off)."""
        host = make_host(epsilon_hz=50_000.0)
        sandbox = make_sandbox(host)
        estimate = measure_tsc_frequency(sandbox, interval_s=0.1, repetitions=10)
        reported = reported_tsc_frequency(sandbox)
        actual = host.tsc.actual_frequency_hz
        assert abs(estimate.mean_hz - actual) < abs(reported - actual)

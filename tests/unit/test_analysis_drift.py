"""Unit tests for drift fitting and expiration estimation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.drift import DriftFit, estimate_expiration_time, fit_boot_time_drift

EPOCH = 1_700_000_000.0


def _zero_sum_noise(n, unit):
    """Deterministic dyadic noise whose values cancel exactly."""
    half = [(k * 7919 + 13) % 201 - 100 for k in range(n // 2)]
    steps = half + [-v for v in reversed(half)] + [0] * (n % 2)
    return np.array(steps) * unit


def _pinned_histories():
    """Histories whose fit is pinned bit-for-bit below.

    Every value is dyadic and every mean is exact, so each sum inside the
    fit is exact in any order: the pinned bits depend only on the fit's
    formula, not on how the platform's BLAS orders its sums.
    """
    day = np.arange(24.0)
    week = np.arange(168.0)
    k40 = np.arange(40.0)
    return {
        # Epoch-scale wall and boot times drifting ~1 us/s, hourly for a day.
        "epoch_us_drift": (
            EPOCH + 3600.0 * day, (EPOCH - 5e6) + 2.0**-20 * 3600.0 * day
        ),
        # The same drift at exactly 1 us/s, rounded to 1/1024 s.
        "epoch_rounded": (
            EPOCH + 3600.0 * day,
            (EPOCH - 5e6) + np.round(1e-6 * 3600.0 * day * 2.0**10) / 2.0**10,
        ),
        "three_points": (
            np.array([EPOCH, EPOCH + 1800.0, EPOCH + 3600.0]),
            np.array([100.5, 100.5 + 2.0**-9 - 2.0**-12, 100.5 + 2.0**-8 + 2.0**-12]),
        ),
        "negative_slope": (
            EPOCH + 900.0 * k40,
            250.0 - 3 * 2.0**-21 * 900.0 * k40 + _zero_sum_noise(40, 2.0**-20),
        ),
        # A week of hourly measurements with ~1 ms noise.
        "weekly_noisy": (
            3600.0 * week,
            100.0 + 3 * 2.0**-21 * 3600.0 * week + _zero_sum_noise(168, 2.0**-17),
        ),
        "constant_boot": (EPOCH + 10.0 * np.arange(10.0), np.full(10, 42.0)),
    }


#: ``float.hex`` of (slope, intercept, r_value) from ``scipy.stats.linregress``.
PINNED_FITS = {
    "epoch_us_drift": ("0x1.0000000000000p-20", "0x1.941e7dab03c00p+30", "0x1.0000000000000p+0"),
    "epoch_rounded": ("0x1.0c922a75bb370p-20", "0x1.941e7c6c91375p+30", "0x1.fff82e6b7b61ep-1"),
    "three_points": ("0x1.3579be02468adp-20", "-0x1.d0da091c71c72p+10", "0x1.fd5cf25364984p-1"),
    "negative_slope": ("-0x1.7fb877687e45fp-20", "0x1.4f033228e24bdp+11", "-0x1.ffff23a88da05p-1"),
    "weekly_noisy": ("0x1.8009c12b761f0p-20", "0x1.8ffff4d0801bbp+6", "0x1.ffffca65d0aeap-1"),
    "constant_boot": ("0x0.0p+0", "0x1.5000000000000p+5", "0x1.0000000000000p+0"),
}


def _fit_hex(fit):
    return (fit.slope.hex(), fit.intercept.hex(), fit.r_value.hex())


@st.composite
def _histories(draw):
    """Drift-like histories: a noisy, optionally rounded line over time."""
    n = draw(st.integers(3, 60))
    start = draw(st.sampled_from([0.0, EPOCH]))
    offsets = draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))
    wall = [start + t for t in offsets]
    assume(min(wall) != max(wall))
    base = draw(st.floats(-2e9, 2e9))
    drift = draw(st.floats(-1e-3, 1e-3))
    noise = draw(st.lists(st.floats(-1e-2, 1e-2), min_size=n, max_size=n))
    boot = [base + drift * (t - start) + e for t, e in zip(wall, noise)]
    if draw(st.booleans()):
        boot = [round(b, 3) for b in boot]
    return wall, boot


class TestFitDrift:
    def test_fits_perfect_line(self):
        times = np.linspace(0, 1000, 20)
        boots = 500.0 + 2e-6 * times
        fit = fit_boot_time_drift(times, boots)
        assert fit.slope == pytest.approx(2e-6, rel=1e-6)
        assert fit.intercept == pytest.approx(500.0, abs=1e-6)
        assert abs(fit.r_value) == pytest.approx(1.0)

    def test_fits_negative_slope(self):
        times = np.linspace(0, 1000, 20)
        boots = 500.0 - 3e-6 * times
        fit = fit_boot_time_drift(times, boots)
        assert fit.slope == pytest.approx(-3e-6, rel=1e-6)

    def test_noisy_fit_still_strongly_linear(self, rng):
        """Paper: minimum |r| across all histories was 0.9997."""
        times = np.linspace(0, 7 * 86400, 168)
        boots = 100.0 + 1.5e-6 * times + rng.normal(0, 0.001, size=times.size)
        fit = fit_boot_time_drift(times, boots)
        assert abs(fit.r_value) > 0.999

    def test_constant_history_r_treated_as_one(self):
        times = np.linspace(0, 100, 10)
        boots = np.full(10, 42.0)
        fit = fit_boot_time_drift(times, boots)
        assert fit.slope == pytest.approx(0.0)

    def test_identical_wall_times_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            fit_boot_time_drift([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_boot_time_drift([1, 2], [1, 2, 3])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_boot_time_drift([1, 2], [1, 2])

    def test_boot_time_at(self):
        fit = DriftFit(slope=2.0, intercept=10.0, r_value=1.0)
        assert fit.boot_time_at(5.0) == 20.0


class TestFitBitIdentity:
    @pytest.mark.parametrize("name", sorted(PINNED_FITS))
    def test_pinned_fit(self, name):
        wall, boot = _pinned_histories()[name]
        assert _fit_hex(fit_boot_time_drift(wall, boot)) == PINNED_FITS[name]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_scipy_linregress(self):
        stats = pytest.importorskip("scipy.stats")

        @settings(max_examples=200, deadline=None)
        @given(_histories())
        def check(history):
            wall, boot = history
            expected = stats.linregress(wall, boot)
            r_value = 1.0 if math.isnan(expected.rvalue) else float(expected.rvalue)
            assert _fit_hex(fit_boot_time_drift(wall, boot)) == (
                float(expected.slope).hex(), float(expected.intercept).hex(), r_value.hex()
            )

        check()


class TestExpiration:
    def test_positive_drift_expires_at_upper_boundary(self):
        # Boot time 100.2 drifting +1e-6 s/s with p=1: boundary at 100.5.
        fit = DriftFit(slope=1e-6, intercept=100.2, r_value=1.0)
        expiration = estimate_expiration_time(fit, at_wall_time=0.0, p_boot=1.0)
        assert expiration == pytest.approx(0.3 / 1e-6)

    def test_negative_drift_expires_at_lower_boundary(self):
        fit = DriftFit(slope=-1e-6, intercept=100.2, r_value=1.0)
        expiration = estimate_expiration_time(fit, at_wall_time=0.0, p_boot=1.0)
        assert expiration == pytest.approx(0.7 / 1e-6)

    def test_zero_drift_never_expires(self):
        fit = DriftFit(slope=0.0, intercept=100.0, r_value=1.0)
        assert estimate_expiration_time(fit, 0.0, 1.0) == math.inf

    def test_larger_precision_lives_longer(self):
        fit = DriftFit(slope=1e-6, intercept=100.1, r_value=1.0)
        fine = estimate_expiration_time(fit, 0.0, 0.1)
        coarse = estimate_expiration_time(fit, 0.0, 10.0)
        assert coarse > fine

    def test_evaluated_at_later_time(self):
        fit = DriftFit(slope=1e-6, intercept=100.2, r_value=1.0)
        early = estimate_expiration_time(fit, 0.0, 1.0)
        later = estimate_expiration_time(fit, 1000.0, 1.0)
        assert later == pytest.approx(early - 1000.0, rel=1e-6)

    def test_invalid_precision_rejected(self):
        fit = DriftFit(slope=1e-6, intercept=0.0, r_value=1.0)
        with pytest.raises(ValueError):
            estimate_expiration_time(fit, 0.0, 0.0)

    def test_faster_drift_expires_sooner(self):
        slow = DriftFit(slope=1e-7, intercept=100.2, r_value=1.0)
        fast = DriftFit(slope=1e-5, intercept=100.2, r_value=1.0)
        assert estimate_expiration_time(fast, 0.0, 1.0) < estimate_expiration_time(
            slow, 0.0, 1.0
        )

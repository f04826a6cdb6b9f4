"""Property-based tests for fingerprint derivation and rounding."""

import math

from hypothesis import example, given, strategies as st

from repro.analysis.drift import DriftFit, estimate_expiration_time
from repro.core.fingerprint import Gen1Fingerprint, Gen1Sample

boot_times = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
precisions = st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0])


@given(boot_times, precisions)
@example(16777216.28125, 1e-4)  # boot / p_boot is an exact .5 tie
def test_rounding_error_bounded_by_half_precision(boot, p_boot):
    fp = Gen1Fingerprint.from_boot_time("m", boot, p_boot)
    # ``boot_time`` is the float product ``bucket * p_boot``, so beyond the
    # half-precision rounding it may be off by the product's own rounding
    # (half an ulp of a value near ``boot``) plus the quotient's, which
    # can pick the far bucket on a near-tie: two ulps of ``boot`` cover both.
    bound = p_boot / 2 + 1e-6 * p_boot + 2 * math.ulp(boot)
    assert abs(fp.boot_time - boot) <= bound


@given(boot_times, precisions)
def test_same_input_same_fingerprint(boot, p_boot):
    a = Gen1Fingerprint.from_boot_time("m", boot, p_boot)
    b = Gen1Fingerprint.from_boot_time("m", boot, p_boot)
    assert a == b
    assert hash(a) == hash(b)


@given(boot_times, st.floats(min_value=0.0, max_value=0.4), precisions)
def test_nearby_boot_times_usually_match(boot, jitter_fraction, p_boot):
    """Two measurements within the same bucket produce equal fingerprints."""
    bucket = round(boot / p_boot)
    center = bucket * p_boot
    other = center + jitter_fraction * p_boot
    a = Gen1Fingerprint.from_boot_time("m", center, p_boot)
    b = Gen1Fingerprint.from_boot_time("m", other, p_boot)
    assert a == b


@given(boot_times, precisions)
def test_distant_boot_times_never_match(boot, p_boot):
    a = Gen1Fingerprint.from_boot_time("m", boot, p_boot)
    b = Gen1Fingerprint.from_boot_time("m", boot + 2.1 * p_boot, p_boot)
    assert a != b


@given(
    st.floats(min_value=1e5, max_value=1e10, allow_nan=False),
    st.integers(min_value=0, max_value=10**15),
    st.floats(min_value=1e9, max_value=4e9),
)
@example(100000.00000000001, 231_072_000_000_001, 1e9)  # off by one ulp of T_w
def test_boot_time_equation_inverts(wall, tsc, freq):
    sample = Gen1Sample(
        cpu_model="m", tsc_value=tsc, wall_time=wall, reported_frequency_hz=freq
    )
    # T_w == T_boot + tsc / f by construction, up to two roundings.  The
    # quotient q = tsc / f is the same float on both sides (tsc < 2**53
    # converts exactly).  T_boot = fl(T_w - q) is off by some e with
    # |e| <= ulp(M) / 2, M = max(T_w, q), since |T_w - q| <= M.  Then
    # fl(T_boot + q) is the float nearest T_w + e, and T_w is a float, so
    # the sum lands within 2|e| <= ulp(M) of T_w.
    quotient = tsc / freq
    assert abs(sample.boot_time() + quotient - wall) <= math.ulp(max(wall, quotient))


@given(
    st.floats(min_value=-1e-4, max_value=1e-4, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6),
    precisions,
)
def test_expiration_nonnegative_and_bounded(slope, intercept, p_boot):
    fit = DriftFit(slope=slope, intercept=intercept, r_value=1.0)
    expiration = estimate_expiration_time(fit, at_wall_time=0.0, p_boot=p_boot)
    assert expiration >= 0.0
    if slope != 0.0:
        assert expiration <= p_boot / abs(slope) + 1e-6
    else:
        assert math.isinf(expiration)

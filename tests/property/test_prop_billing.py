"""Property-based tests for the billing model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cloud.billing import BillingMeter, PricingRates, pairwise_test_cost

positive_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
sizes = st.tuples(
    st.floats(min_value=0.25, max_value=8.0),
    st.floats(min_value=0.125, max_value=32.0),
)


@given(st.lists(st.tuples(sizes, positive_floats), max_size=30))
def test_meter_is_additive(charges):
    whole = BillingMeter()
    for (vcpus, mem), seconds in charges:
        whole.charge_active(vcpus, mem, seconds)
    total_by_parts = 0.0
    for (vcpus, mem), seconds in charges:
        part = BillingMeter()
        part.charge_active(vcpus, mem, seconds)
        total_by_parts += part.total_usd
    assert whole.total_usd == pytest.approx(total_by_parts, rel=1e-9, abs=1e-12)


@given(st.lists(st.tuples(sizes, positive_floats), max_size=30))
def test_batched_charge_is_the_per_entry_loop(charges):
    loop, batched = BillingMeter(), BillingMeter()
    for (vcpus, mem), seconds in charges:
        loop.charge_active(vcpus, mem, seconds)
    batched.charge_active_many(
        np.array([vcpus for (vcpus, _mem), _s in charges]),
        np.array([mem for (_vcpus, mem), _s in charges]),
        np.array([seconds for _size, seconds in charges]),
    )
    assert (batched.vcpu_seconds, batched.gb_seconds) == (
        loop.vcpu_seconds,
        loop.gb_seconds,
    )


@given(sizes, positive_floats, positive_floats)
def test_cost_monotone_in_time(size, t1, t2):
    vcpus, mem = size
    rates = PricingRates()
    low, high = sorted((t1, t2))
    assert rates.active_cost(vcpus, mem, low) <= rates.active_cost(vcpus, mem, high)


@given(sizes, sizes, positive_floats)
def test_cost_monotone_in_resources(size_a, size_b, seconds):
    rates = PricingRates()
    (cpu_a, mem_a), (cpu_b, mem_b) = size_a, size_b
    if cpu_a <= cpu_b and mem_a <= mem_b:
        assert rates.active_cost(cpu_a, mem_a, seconds) <= rates.active_cost(
            cpu_b, mem_b, seconds
        )


@given(st.integers(min_value=2, max_value=2000), st.floats(min_value=0.01, max_value=5.0))
def test_pairwise_cost_model_consistency(n, per_test):
    n_tests, seconds, usd = pairwise_test_cost(n, per_test)
    assert n_tests == n * (n - 1) // 2
    assert seconds == pytest.approx(n_tests * per_test)
    assert usd >= 0.0
    # Doubling the fleet more than triples the bill (superlinear).
    _, _, usd2 = pairwise_test_cost(2 * n, per_test)
    assert usd2 > 3 * usd

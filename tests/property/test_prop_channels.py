"""Property-based tests for the channel-kind registry.

The load-bearing invariant: the registry is metadata until a resource is
actually built, so *registering* a new channel kind — even building and
exercising its resource on a live host — must never perturb the RNG draw
order of any existing kind's observations.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hardware.channels import (
    ChannelKind,
    DvfsFrequencyResource,
    LlcOccupancyResource,
    register_channel_kind,
    registered_channel_kinds,
    unregister_channel_kind,
)
from repro.hardware.rng_resource import ContentionResource
from tests.conftest import make_host


def _observe_stream(host, kinds, seed, n_obs):
    """Observation levels + final bit-generator state per built-in kind."""
    for index in range(3):
        for kind in kinds:
            host.channel_resource(kind).start_pressure(f"i{index}")
    rng = np.random.default_rng(seed)
    stream = {
        kind: [
            int(host.channel_resource(kind).observe("i0", rng))
            for _ in range(n_obs)
        ]
        for kind in kinds
    }
    return stream, str(rng.bit_generator.state)


@given(
    seed=st.integers(0, 2**31 - 1),
    n_obs=st.integers(1, 16),
    extra_background=st.floats(0.01, 0.9),
    build_extra=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_registering_a_kind_never_perturbs_existing_kinds(
    seed, n_obs, extra_background, build_extra
):
    kinds = registered_channel_kinds()

    baseline_host = make_host()
    baseline = _observe_stream(baseline_host, kinds, seed, n_obs)

    extra = ChannelKind(
        name="prop-extra",
        description="hypothesis scratch kind",
        background_rate=extra_background,
        drop_rate=min(0.9, extra_background / 2 + 0.01),
    )
    register_channel_kind(extra)
    try:
        host = make_host()
        if build_extra:
            # Building and pressuring the new kind's resource draws from
            # its *own* observation RNGs only.
            resource = host.channel_resource("prop-extra")
            resource.start_pressure("other")
            resource.observe("other", np.random.default_rng(seed + 1))
        assert _observe_stream(host, kinds, seed, n_obs) == baseline
    finally:
        unregister_channel_kind("prop-extra")
    assert "prop-extra" not in registered_channel_kinds()


@given(
    seed=st.integers(0, 2**31 - 1),
    n_pressurers=st.integers(0, 12),
    n_obs=st.integers(1, 12),
    saturation=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_saturation_is_a_pure_post_clamp(seed, n_pressurers, n_obs, saturation):
    """A saturating resource observes exactly ``min(level, saturation)`` of
    the unsaturated resource's stream — and consumes identical draws."""
    plain = ContentionResource(background_rate=0.12, drop_rate=0.10)
    clamped = ContentionResource(
        background_rate=0.12, drop_rate=0.10, saturation=saturation
    )
    for resource in (plain, clamped):
        for index in range(n_pressurers):
            resource.start_pressure(f"i{index}")
        resource.start_pressure("self")
    rng_plain = np.random.default_rng(seed)
    rng_clamped = np.random.default_rng(seed)
    for _ in range(n_obs):
        level = plain.observe("self", rng_plain)
        assert clamped.observe("self", rng_clamped) == min(level, saturation)
    assert str(rng_plain.bit_generator.state) == str(
        rng_clamped.bit_generator.state
    )


@given(
    levels=st.lists(st.integers(0, 64), min_size=1, max_size=32),
    step=st.floats(0.01, 0.2),
    floor=st.floats(0.1, 0.9),
)
@settings(max_examples=40, deadline=None)
def test_dvfs_frequency_map_properties(levels, step, floor):
    """Frequency is monotone non-increasing in level, floored, and
    thresholding on frequency is equivalent to thresholding on level."""
    resource = DvfsFrequencyResource(step_fraction=step, floor_fraction=floor)
    freqs = resource.frequency_of_level(np.asarray(levels))
    assert np.all(freqs <= resource.base_frequency_hz)
    assert np.all(
        freqs >= resource.base_frequency_hz * resource.floor_fraction - 1e-6
    )
    ordered = resource.frequency_of_level(np.arange(0, 65))
    assert np.all(np.diff(ordered) <= 0)
    # Threshold equivalence: level >= m  <=>  frequency <= f(m), provided
    # f is still strictly decreasing at m (above the floor).
    for m in range(1, 8):
        f_m = resource.frequency_of_level(m)
        if f_m <= resource.base_frequency_hz * resource.floor_fraction:
            break
        for level in levels:
            assert (resource.frequency_of_level(level) <= f_m) == (level >= m)


def test_llc_resource_is_contention_resource_with_saturation():
    resource = LlcOccupancyResource()
    assert isinstance(resource, ContentionResource)
    assert type(resource).observe is ContentionResource.observe

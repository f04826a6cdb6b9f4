"""The covert-channel kind registry: descriptors, resources, factories."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.covert import (
    COVERT_CHANNEL_CLASSES,
    DvfsFingerprintChannel,
    LlcOccupancyChannel,
    MemoryBusCovertChannel,
    RngCovertChannel,
    covert_channel_for,
)
from repro.errors import VerificationError
from repro.hardware.channels import (
    ChannelKind,
    DvfsFrequencyResource,
    LlcOccupancyResource,
    channel_kind,
    register_channel_kind,
    registered_channel_kinds,
    unregister_channel_kind,
)
from repro.hardware.rng_resource import ContentionResource
from tests.conftest import make_host


class TestRegistry:
    def test_builtin_kinds_registered_in_order(self):
        assert registered_channel_kinds() == ("rng", "bus", "llc", "dvfs")

    def test_unknown_kind_error_names_registered_kinds(self):
        with pytest.raises(ValueError) as excinfo:
            channel_kind("cache")
        message = str(excinfo.value)
        assert "unknown covert-channel resource kind: 'cache'" in message
        for name in registered_channel_kinds():
            assert name in message

    def test_host_channel_resource_unknown_kind_names_registered_kinds(self):
        host = make_host()
        with pytest.raises(
            ValueError,
            match=r"unknown covert-channel resource kind: 'cache'; "
            r"registered kinds: .*llc",
        ):
            host.channel_resource("cache")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_channel_kind(
                ChannelKind(
                    name="rng",
                    description="imposter",
                    background_rate=0.5,
                    drop_rate=0.5,
                )
            )

    def test_builtin_kinds_cannot_be_unregistered(self):
        with pytest.raises(ValueError, match="built-in"):
            unregister_channel_kind("rng")

    def test_register_unregister_roundtrip(self):
        kind = ChannelKind(
            name="test-scratch",
            description="scratch kind for this test",
            background_rate=0.01,
            drop_rate=0.01,
        )
        register_channel_kind(kind)
        try:
            assert channel_kind("test-scratch") is kind
            assert "test-scratch" in registered_channel_kinds()
        finally:
            unregister_channel_kind("test-scratch")
        assert "test-scratch" not in registered_channel_kinds()

    @pytest.mark.parametrize("method", ["observe"])
    def test_resource_overriding_contention_model_rejected(self, method):
        """The one CTest engine, ``window_hits``, reproduces the base
        contention model, so a kind whose resource replaces it is refused
        at registration."""

        def override(self, *args, **kwargs):  # pragma: no cover - never called
            raise AssertionError

        custom = type("CustomResource", (ContentionResource,), {method: override})
        kind = ChannelKind(
            name="test-custom-model",
            description="resource with its own contention model",
            background_rate=0.01,
            drop_rate=0.01,
            resource_cls=custom,
        )
        with pytest.raises(ValueError, match=f"overrides ContentionResource.{method}"):
            register_channel_kind(kind)
        assert "test-custom-model" not in registered_channel_kinds()


class TestBuildResource:
    def test_neutral_multiplier_is_bit_exact(self):
        kind = channel_kind("llc")
        resource = kind.build_resource(1.0)
        assert isinstance(resource, LlcOccupancyResource)
        assert resource.background_rate == kind.background_rate
        assert resource.drop_rate == kind.drop_rate

    def test_multiplier_scales_background_rate_only(self):
        kind = channel_kind("dvfs")
        resource = kind.build_resource(2.0)
        assert resource.background_rate == pytest.approx(0.12)
        assert resource.drop_rate == kind.drop_rate

    def test_multiplier_capped_below_one(self):
        resource = channel_kind("bus").build_resource(100.0)
        assert resource.background_rate == 0.95

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_multiplier_rejected(self, bad):
        with pytest.raises(ValueError, match="must be > 0"):
            channel_kind("rng").build_resource(bad)


class TestResources:
    def test_saturation_clamps_observed_level(self):
        resource = ContentionResource(
            background_rate=0.0, drop_rate=0.0, saturation=3
        )
        for i in range(10):
            resource.start_pressure(f"i{i}")
        rng = np.random.default_rng(0)
        assert resource.observe("i0", rng) == 3

    def test_saturation_validation(self):
        with pytest.raises(ValueError, match="saturation"):
            ContentionResource(saturation=0)

    def test_llc_defaults_saturate(self):
        assert LlcOccupancyResource().saturation == 8

    def test_dvfs_frequency_map_is_monotone_with_floor(self):
        resource = DvfsFrequencyResource()
        levels = np.arange(0, 40)
        freqs = resource.frequency_of_level(levels)
        assert np.all(np.diff(freqs) <= 0)
        assert freqs[-1] == pytest.approx(
            resource.base_frequency_hz * resource.floor_fraction
        )
        scalar = resource.frequency_of_level(1)
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(
            resource.base_frequency_hz * (1.0 - resource.step_fraction)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [dict(step_fraction=0.0), dict(step_fraction=1.5),
         dict(floor_fraction=0.0), dict(floor_fraction=1.5)],
    )
    def test_dvfs_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            DvfsFrequencyResource(**kwargs)


class TestCovertChannelFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("rng", RngCovertChannel),
            ("bus", MemoryBusCovertChannel),
            ("llc", LlcOccupancyChannel),
            ("dvfs", DvfsFingerprintChannel),
        ],
    )
    def test_factory_maps_kinds_to_classes(self, kind, cls):
        channel = covert_channel_for(kind)
        assert type(channel) is cls
        assert channel.kind == kind

    def test_factory_forwards_kwargs(self):
        channel = covert_channel_for("llc", total_rounds=10, required_rounds=5)
        assert channel.total_rounds == 10
        assert channel.required_rounds == 5

    def test_factory_unknown_kind_names_known(self):
        with pytest.raises(VerificationError, match="known kinds: .*dvfs"):
            covert_channel_for("cache")

    def test_classes_map_complete(self):
        assert set(COVERT_CHANNEL_CLASSES) == {"rng", "bus", "llc", "dvfs"}

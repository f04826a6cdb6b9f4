"""Twin-world identity for every registered channel kind.

Two guarantees per kind:

* **engine identity** — the per-round loop oracle and the batch-wide
  ``window_hits`` engine produce identical verdicts, hits, RNG end
  states, and pressurer sets for every registered kind (the per-kind
  generalization of the RNG twin-world suite);
* **refactor identity** — the kind-routed hooks (``channel_port(kind)`` /
  ``start_channel_pressure(kind)``) reproduce the historical wiring
  straight to the host's eager ``rng_resource`` / ``memory_bus`` fields
  byte-for-byte.
"""

from __future__ import annotations

import pytest

from repro.core.covert import COVERT_CHANNEL_CLASSES, MemoryBusCovertChannel, RngCovertChannel
from repro.faults import FaultPlan, FaultSpec
from repro.sandbox.base import ChannelPort
from tests.unit.test_ctest_vectorized import launch, run_twin_worlds

KINDS = tuple(COVERT_CHANNEL_CLASSES)


class LegacyRngChannel(RngCovertChannel):
    """The pre-registry hook wiring: the host's ``rng_resource`` field."""

    @staticmethod
    def _start(sandbox) -> ChannelPort:
        sandbox._host.rng_resource.start_pressure(sandbox.sandbox_id)
        return ChannelPort(sandbox._host.rng_resource, sandbox.sandbox_id, sandbox._rng)

    @staticmethod
    def _stop(sandbox) -> None:
        sandbox._host.rng_resource.stop_pressure(sandbox.sandbox_id)


class LegacyBusChannel(MemoryBusCovertChannel):
    """The pre-registry hook wiring: the host's ``memory_bus`` field."""

    @staticmethod
    def _start(sandbox) -> ChannelPort:
        sandbox._host.memory_bus.start_pressure(sandbox.sandbox_id)
        return ChannelPort(sandbox._host.memory_bus, sandbox.sandbox_id, sandbox._rng)

    @staticmethod
    def _stop(sandbox) -> None:
        sandbox._host.memory_bus.stop_pressure(sandbox.sandbox_id)


@pytest.mark.parametrize("seed", (11, 12, 13))
@pytest.mark.parametrize("kind", KINDS)
def test_kind_engine_identity(tiny_env_factory, kind, seed):
    """Loop oracle and batched engine agree for every registered kind."""
    run_twin_worlds(
        tiny_env_factory,
        seed=seed,
        n_instances=8,
        group_size=4,
        threshold=2,
        plan_factory=lambda: FaultPlan(
            FaultSpec(ctest_death_rate=0.2, seed=seed)
        ),
        channel_cls=COVERT_CHANNEL_CLASSES[kind],
    )


@pytest.mark.parametrize(
    "generic_cls,legacy_cls",
    [(RngCovertChannel, LegacyRngChannel), (MemoryBusCovertChannel, LegacyBusChannel)],
    ids=["rng", "bus"],
)
@pytest.mark.parametrize("seed", (21, 22))
def test_generic_hooks_match_legacy_hooks(
    tiny_env_factory, generic_cls, legacy_cls, seed
):
    """Kind-routed hooks reproduce the historical static wiring exactly."""
    generic = run_twin_worlds(
        tiny_env_factory,
        seed=seed,
        n_instances=6,
        group_size=3,
        threshold=2,
        plan_factory=lambda: None,
        channel_cls=generic_cls,
    )
    legacy = run_twin_worlds(
        tiny_env_factory,
        seed=seed,
        n_instances=6,
        group_size=3,
        threshold=2,
        plan_factory=lambda: None,
        channel_cls=legacy_cls,
    )
    # run_twin_worlds already proved loop==batched inside each call; this
    # pins the two wirings to the same observation dicts across calls.
    assert generic[0] == legacy[0]


def test_channel_port_resolves_every_kind(tiny_env):
    handle = launch(tiny_env, 1)[0]
    sandbox = handle._instance.sandbox
    host = sandbox._host
    assert sandbox.channel_port("rng").resource is host.rng_resource
    assert sandbox.channel_port("bus").resource is host.memory_bus
    for kind in KINDS:
        port = sandbox.channel_port(kind)
        assert port.resource is host.channel_resource(kind)
        assert port.sandbox_id == handle.instance_id
        assert port.rng is sandbox._rng

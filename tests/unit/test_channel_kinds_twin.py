"""Twin-world identity for every registered channel kind.

Two guarantees per kind:

* **engine identity** — the per-round loop oracle and the batch-wide
  ``window_hits`` engine produce identical verdicts, hits, RNG end
  states, and pressurer sets for every registered kind (the per-kind
  generalization of the RNG twin-world suite);
* **refactor identity** — the kind-routed lookup
  (:meth:`~repro.fleet.ContainerInstance.channel_resource`) reproduces the
  historical wiring straight to the host's eager ``rng_resource`` /
  ``memory_bus`` fields byte-for-byte.
"""

from __future__ import annotations

import pytest

from repro.core.covert import COVERT_CHANNEL_CLASSES, MemoryBusCovertChannel, RngCovertChannel
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import ContainerInstance
from tests.unit.test_ctest_vectorized import launch, run_twin_worlds

KINDS = tuple(COVERT_CHANNEL_CLASSES)


class LegacyRngChannel(RngCovertChannel):
    """The pre-registry wiring: the host's eager ``rng_resource`` field."""

    FIELD = "rng_resource"

    def ctest_batch(self, groups, threshold_m):
        field = self.FIELD

        def eager_field(instance, kind):
            rows = instance._rows
            return getattr(rows.hosts[rows.host[instance.row]], field)

        registry = ContainerInstance.channel_resource
        ContainerInstance.channel_resource = eager_field
        try:
            return super().ctest_batch(groups, threshold_m)
        finally:
            ContainerInstance.channel_resource = registry


class LegacyBusChannel(LegacyRngChannel, MemoryBusCovertChannel):
    """The pre-registry wiring: the host's eager ``memory_bus`` field."""

    FIELD = "memory_bus"


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


def test_channel_resource_resolves_every_kind(tiny_env):
    handle = launch(tiny_env, 1)[0]
    instance = handle._instance
    host = tiny_env.datacenter.host(instance.host_id)
    assert instance.channel_resource("rng") is host.rng_resource
    assert instance.channel_resource("bus") is host.memory_bus
    for kind in KINDS:
        assert instance.channel_resource(kind) is host.channel_resource(kind)
    # Resolved from the row: the row stays cold.
    assert instance.row not in instance._rows.hot
    sandbox = instance.sandbox
    for kind in KINDS:
        sandbox.start_channel_pressure(kind)
        assert instance.channel_resource(kind).current_pressurers() == {handle.instance_id}

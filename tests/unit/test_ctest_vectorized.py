"""Twin-world identity suite for the batched CTest round engine.

Every test builds two byte-identical simulated worlds from the same seed,
runs the per-round loop oracle (:mod:`tests.oracles.ctest`) in one and the
batched ``observe_rounds`` engine in the other, and asserts that verdicts,
per-instance hit counts, sandbox RNG end states, and host pressurer sets
all match exactly.  This is the engine-level counterpart of the
golden-trace byte-identity guarantee: the engine must be
indistinguishable from the loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.api import InstanceHandle
from repro.cloud.services import ServiceConfig
from repro.core.covert import MemoryBusCovertChannel, RngCovertChannel
from repro.core.verification import ScalableVerifier, TaggedInstance
from repro.errors import InstanceGoneError
from repro.faults import FaultPlan, FaultSpec
from repro.sandbox.base import ChannelPort
from tests.oracles.ctest import LoopRngCovertChannel, loop_reference


class ScriptedPlan(FaultPlan):
    """A fault plan that kills specific instances at specific rounds.

    ``deaths`` maps instance ids to the CTest round in which they die;
    the batch serial in the token is ignored so the schedule applies to
    whichever batch tests the instance.  No verdict noise.
    """

    def __init__(self, deaths: dict[str, int]) -> None:
        super().__init__(FaultSpec())
        self._deaths = dict(deaths)

    def ctest_death_round(self, token: str, total_rounds: int) -> int | None:
        _serial, _, instance_id = token.partition(":")
        when = self._deaths.get(instance_id)
        if when is None:
            return None
        return min(when, total_rounds - 1)

    def ctest_noise(self, token: str) -> bool:
        return False


def launch(env, n, name="svc", account="account-1"):
    client = env.clients[account]
    client.deploy(ServiceConfig(name=name))
    return client.connect(name, n)


def rng_state(handle: InstanceHandle) -> str:
    return handle.run(lambda sandbox: str(sandbox._rng.bit_generator.state))


def pressurer_sets(env, handles) -> dict[str, frozenset]:
    orch = env.orchestrator
    hosts = {orch.true_host_of(h.instance_id) for h in handles}
    return {
        host_id: env.datacenter.host(host_id).rng_resource.current_pressurers()
        for host_id in sorted(hosts)
    }


def run_twin_worlds(
    tiny_env_factory,
    seed: int,
    n_instances: int,
    group_size: int,
    threshold: int,
    plan_factory,
    channel_cls=RngCovertChannel,
    kill_first: bool = False,
):
    """Run one identical ctest_batch in a loop world and a batched world.

    Returns ``(loop_world, batched_world)`` observation dicts so callers
    can make scenario-specific assertions on top of the identity checks
    performed here.
    """
    worlds = {}
    for label, cls in (("loop", loop_reference(channel_cls)), ("batched", channel_cls)):
        env = tiny_env_factory(seed=seed)
        handles = launch(env, n_instances)
        if kill_first:
            env.orchestrator.instance_store.terminate(
                np.array([handles[0]._instance.row]), env.orchestrator.clock.now()
            )
        groups = [
            handles[i : i + group_size]
            for i in range(0, len(handles), group_size)
        ]
        channel = cls(fault_plan=plan_factory())
        results = channel.ctest_batch(groups, threshold)
        worlds[label] = {
            "ids": [h.instance_id for h in handles],
            "positives": [r.positive for r in results],
            "hits": dict(channel._last_hits),
            "states": {
                h.instance_id: rng_state(h) for h in handles if h.alive
            },
            "pressurers": pressurer_sets(env, handles),
            "faults": channel.stats.faults_injected,
        }
    loop, batched = worlds["loop"], worlds["batched"]
    assert loop["ids"] == batched["ids"], "twin worlds diverged before the test"
    assert loop["positives"] == batched["positives"]
    assert loop["hits"] == batched["hits"]
    assert loop["states"] == batched["states"]
    assert loop["pressurers"] == batched["pressurers"]
    assert loop["faults"] == batched["faults"]
    return loop, batched


# 8 seeds x 4 shapes = 32 identity cases; the nonzero death rates make
# fault-injected mid-test deaths part of the pinned surface.
SHAPES = [
    pytest.param(6, 2, 2, 0.0, id="pairs-clean"),
    pytest.param(9, 3, 2, 0.0, id="trios-clean"),
    pytest.param(10, 5, 3, 0.25, id="quints-m3-deaths"),
    pytest.param(8, 4, 2, 0.5, id="quads-heavy-deaths"),
]


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("n,group_size,threshold,death_rate", SHAPES)
def test_identity_matrix(
    tiny_env_factory, seed, n, group_size, threshold, death_rate
):
    run_twin_worlds(
        tiny_env_factory,
        seed=seed,
        n_instances=n,
        group_size=group_size,
        threshold=threshold,
        plan_factory=lambda: FaultPlan(
            FaultSpec(ctest_death_rate=death_rate, seed=seed)
        ),
    )


class TestEdgeCases:
    def test_instance_dead_before_start(self, tiny_env_factory):
        loop, _batched = run_twin_worlds(
            tiny_env_factory,
            seed=3,
            n_instances=6,
            group_size=3,
            threshold=2,
            plan_factory=lambda: None,
            kill_first=True,
        )
        # The dead instance reads as negative on both paths.
        assert loop["positives"][0][0] is False

    def test_death_at_round_zero(self, tiny_env_factory):
        env = tiny_env_factory(seed=4)
        victim = launch(env, 4)[0].instance_id
        loop, _batched = run_twin_worlds(
            tiny_env_factory,
            seed=4,
            n_instances=4,
            group_size=4,
            threshold=2,
            plan_factory=lambda: ScriptedPlan({victim: 0}),
        )
        assert loop["hits"][victim] == 0
        assert loop["positives"][0][0] is False
        assert loop["faults"] == 1

    def test_death_at_last_round(self, tiny_env_factory):
        env = tiny_env_factory(seed=5)
        victim = launch(env, 4)[1].instance_id
        channel = RngCovertChannel()
        run_twin_worlds(
            tiny_env_factory,
            seed=5,
            n_instances=4,
            group_size=4,
            threshold=2,
            plan_factory=lambda: ScriptedPlan(
                {victim: channel.total_rounds - 1}
            ),
        )

    def test_multiple_deaths_same_round(self, tiny_env_factory):
        env = tiny_env_factory(seed=6)
        ids = [h.instance_id for h in launch(env, 6)]
        run_twin_worlds(
            tiny_env_factory,
            seed=6,
            n_instances=6,
            group_size=6,
            threshold=2,
            plan_factory=lambda: ScriptedPlan(
                {ids[0]: 10, ids[2]: 10, ids[4]: 30}
            ),
        )

    def test_stale_pressure_from_real_instance_gone(self, tiny_env_factory):
        """An instance terminated between pressure start and the window
        raises a real ``InstanceGoneError``; the loop never stops its
        pressure, and the batched engine must model that stale pressure
        as external contention."""
        worlds = {}
        for label, cls in (("loop", LoopRngCovertChannel), ("batched", RngCovertChannel)):
            env = tiny_env_factory(seed=7)
            handles = launch(env, 6)
            channel = cls()
            for handle in handles:
                handle.run(channel._start)
            victim = handles[0]
            env.orchestrator.instance_store.terminate(
                np.array([victim._instance.row]), env.orchestrator.clock.now()
            )
            dead: set[str] = set()
            hits = channel._observe_window(
                handles,
                dead,
                {},
                {h.instance_id: 2 for h in handles},
            )
            worlds[label] = {
                "hits": hits,
                "dead": set(dead),
                "states": {
                    h.instance_id: rng_state(h) for h in handles[1:]
                },
                "pressurers": pressurer_sets(env, handles),
            }
        assert worlds["loop"] == worlds["batched"]
        # The victim's stale pressure is still registered on its host.
        victim_id = next(iter(worlds["loop"]["dead"]))
        assert any(
            victim_id in members
            for members in worlds["loop"]["pressurers"].values()
        )

    def test_verifier_with_singleton_adjacent_chunks(self, tiny_env_factory):
        """A 7-member fingerprint group at m=2 chunks as 3+3+1, which
        ``_balanced_chunks`` rebalances to 3+2+2 — the singleton-adjacent
        shape.  The full verifier must report identical clusters and test
        counts under the engine and the loop oracle."""
        reports = {}
        for label, cls in (("loop", LoopRngCovertChannel), ("batched", RngCovertChannel)):
            env = tiny_env_factory(seed=8)
            handles = launch(env, 7)
            tagged = [
                TaggedInstance(handle=h, fingerprint="same-fp", model_key="cpu0")
                for h in handles
            ]
            report = ScalableVerifier(cls(), threshold_m=2).verify(tagged)
            reports[label] = {
                "clusters": sorted(
                    sorted(h.instance_id for h in cluster)
                    for cluster in report.clusters
                ),
                "n_tests": report.n_tests,
                "n_batches": report.n_batches,
                "fallback_groups": report.fallback_groups,
                "states": {h.instance_id: rng_state(h) for h in handles},
            }
        assert reports["loop"] == reports["batched"]
        # The clusters match the simulator's ground truth placement.
        env = tiny_env_factory(seed=8)
        handles = launch(env, 7)
        truth: dict[str, set[str]] = {}
        for h in handles:
            truth.setdefault(
                env.orchestrator.true_host_of(h.instance_id), set()
            ).add(h.instance_id)
        assert sorted(sorted(m) for m in truth.values()) == reports["batched"]["clusters"]

    def test_memory_bus_channel_identity(self, tiny_env_factory):
        run_twin_worlds(
            tiny_env_factory,
            seed=9,
            n_instances=6,
            group_size=3,
            threshold=2,
            plan_factory=lambda: None,
            channel_cls=MemoryBusCovertChannel,
        )


class TestEngineGuards:
    def test_port_carries_host_resource_and_private_rng(self, tiny_env):
        handle = launch(tiny_env, 1)[0]
        sandbox = handle._instance.sandbox
        port = sandbox.channel_port("rng")
        assert isinstance(port, ChannelPort)
        assert port.resource is sandbox._host.rng_resource
        assert port.rng is sandbox._rng
        assert port.sandbox_id == handle.instance_id
        bus_port = sandbox.channel_port("bus")
        assert bus_port.resource is sandbox._host.memory_bus

    def test_channel_resource_unknown_kind_rejected(self, tiny_env):
        handle = launch(tiny_env, 1)[0]
        with pytest.raises(ValueError, match="unknown covert-channel"):
            handle._instance.sandbox._host.channel_resource("cache")


class TestRunBatch:
    def test_groups_match_ground_truth_placement(self, tiny_env):
        handles = launch(tiny_env, 12)
        orch = tiny_env.orchestrator
        groups = InstanceHandle.run_batch(
            handles, lambda sandboxes: [s.sandbox_id for s in sandboxes]
        )
        for members, ids in groups:
            assert [h.instance_id for h in members] == ids
            hosts = {orch.true_host_of(h.instance_id) for h in members}
            assert len(hosts) == 1
        flat = [h.instance_id for members, _ids in groups for h in members]
        assert sorted(flat) == sorted(h.instance_id for h in handles)

    def test_preserves_input_order_within_host(self, tiny_env):
        handles = launch(tiny_env, 12)
        order = {h.instance_id: i for i, h in enumerate(handles)}
        for members, _ in InstanceHandle.run_batch(
            handles, lambda sandboxes: None
        ):
            indices = [order[h.instance_id] for h in members]
            assert indices == sorted(indices)

    def test_dead_handle_rejected_before_any_probe(self, tiny_env):
        handles = launch(tiny_env, 4)
        tiny_env.orchestrator.instance_store.terminate(
            np.array([handles[2]._instance.row]), tiny_env.orchestrator.clock.now()
        )
        probed: list[str] = []

        def probe(sandboxes):
            probed.extend(s.sandbox_id for s in sandboxes)

        with pytest.raises(InstanceGoneError):
            InstanceHandle.run_batch(handles, probe)
        assert probed == []

    def test_empty_input(self):
        assert InstanceHandle.run_batch([], lambda sandboxes: None) == []

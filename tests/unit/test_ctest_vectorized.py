"""Twin-world identity suite for the batched CTest round engine.

Every test builds two byte-identical simulated worlds from the same seed,
runs the per-round loop oracle (:mod:`tests.oracles.ctest`) in one and the
batch-wide ``window_hits`` engine in the other, and asserts that verdicts,
per-instance hit counts, sandbox RNG end states, and host pressurer sets
all match exactly.  This is the engine-level counterpart of the
golden-trace byte-identity guarantee: the engine must be
indistinguishable from the loop.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.cloud.api import InstanceHandle
from repro.cloud.services import ServiceConfig
from repro.core.covert import (
    LlcOccupancyChannel,
    MemoryBusCovertChannel,
    RngCovertChannel,
)
from repro.core.fingerprint import Gen1Fingerprint
from repro.core.verification import ScalableVerifier
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import InstanceStore
from repro.fleet.probe import RowStream
from repro.hardware import rng_resource
from repro.hardware.cpu import cpu_catalog
from repro.hardware.host import PhysicalHost
from repro.hardware.rng_resource import PASS_DRAWS, ContentionResource, window_hits
from repro.hardware.tsc import TimestampCounter
from repro.sandbox.gvisor import GVisorSandbox
from repro.simtime.clock import SimClock
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
            "faults": channel.stats.counter("faults_injected"),
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
        """An instance terminated while pressuring leaves its pressure
        registered on its host (nothing ever stops it); a later batch over
        its co-residents must count that stale pressure as external
        contention on both engines."""
        worlds = {}
        for label, cls in (("loop", LoopRngCovertChannel), ("batched", RngCovertChannel)):
            env = tiny_env_factory(seed=7)
            handles = launch(env, 6)
            channel = cls()
            victim = handles[0]
            victim.run(lambda sandbox: sandbox.start_channel_pressure("rng"))
            env.orchestrator.instance_store.terminate(
                np.array([victim._instance.row]), env.orchestrator.clock.now()
            )
            results = channel.ctest_batch([handles[1:4], handles[4:]], 2)
            worlds[label] = {
                "positives": [r.positive for r in results],
                "hits": dict(channel._last_hits),
                "states": {
                    h.instance_id: rng_state(h) for h in handles[1:]
                },
                "pressurers": pressurer_sets(env, handles),
            }
        assert worlds["loop"] == worlds["batched"]
        # The victim's stale pressure is still registered on its host...
        assert any(
            victim.instance_id in members
            for members in worlds["loop"]["pressurers"].values()
        )
        # ...and a co-resident of it was tested, so it actually counted.
        orch = env.orchestrator
        victim_host = orch.true_host_of(victim.instance_id)
        assert any(
            orch.true_host_of(h.instance_id) == victim_host for h in handles[1:]
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
            tagged = [(h, Gen1Fingerprint("cpu0", 0, 1.0)) for h in handles]
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
    def test_observer_carries_host_resource_and_sandbox_stream(self, tiny_env):
        hot, cold = launch(tiny_env, 2)
        sandbox = hot._instance.sandbox
        cache = sandbox._rng  # the row becomes hot
        pressured = [(h, h._instance.channel_resource("rng")) for h in (hot, cold)]
        first, second = RngCovertChannel()._observers(pressured)
        assert first.resource is sandbox._host.rng_resource
        assert first.stream.generator() is cache
        host = tiny_env.datacenter.host(cold._instance.host_id)
        assert second.resource is host.rng_resource
        assert isinstance(second.stream, RowStream)
        assert cold._instance.row not in cold._instance._rows.hot

    def test_channel_resource_unknown_kind_rejected(self, tiny_env):
        handle = launch(tiny_env, 1)[0]
        with pytest.raises(ValueError, match="unknown covert-channel"):
            handle._instance.sandbox._host.channel_resource("cache")


def quiet_ports(handles):
    """Start rng pressure on every handle and silence the hosts' noise,
    so each observed level is exactly the host's pressurer count."""
    ports = []
    for handle in handles:
        sandbox = handle._instance.sandbox
        sandbox.start_channel_pressure("rng")
        ports.append((sandbox._host.rng_resource, sandbox.sandbox_id, sandbox._stream))
    for resource, _instance_id, _rng in ports:
        resource.background_rate = 0.0
        resource.drop_rate = 0.0
    return ports


class TestRunBatch:
    """How one batch-wide window groups its observers: by the (hidden)
    host resource, in schedule order within each host."""

    def test_groups_match_ground_truth_placement(self, tiny_env):
        handles = launch(tiny_env, 12)
        orch = tiny_env.orchestrator
        ports = quiet_ports(handles)
        co_resident = {
            h.instance_id: sum(
                orch.true_host_of(o.instance_id) == orch.true_host_of(h.instance_id)
                for o in handles
            )
            for h in handles
        }
        assert len(set(co_resident.values())) > 1, "placement too uniform to test"
        exact = [co_resident[h.instance_id] for h in handles]
        assert list(window_hits(ports, 5, exact)) == [5] * len(handles)
        above = [count + 1 for count in exact]
        assert list(window_hits(ports, 5, above)) == [0] * len(handles)

    def test_preserves_input_order_within_host(self):
        """Only the order among a host's own observers matters: it decides
        who still sees a dying co-resident in its death round."""
        host, other = ContentionResource(0.0, 0.0), ContentionResource(0.0, 0.0)
        for instance_id in ("a", "b", "c"):
            host.start_pressure(instance_id)
        other.start_pressure("x")
        rng = np.random.default_rng
        a, b, c, x = (
            (host, "a", rng(1)),
            (host, "b", rng(2)),
            (host, "c", rng(3)),
            (other, "x", rng(4)),
        )
        stops = {"a": None, "b": 1, "c": None, "x": None}

        def hits(order):
            return dict(
                zip(
                    [o[1] for o in order],
                    window_hits(order, 2, [3] * 4, [stops[o[1]] for o in order]),
                )
            )

        schedule = hits([a, b, c, x])
        assert schedule == {"a": 2, "b": 1, "c": 1, "x": 0}
        assert hits([x, a, b, c]) == schedule
        assert hits([a, x, b, c]) == schedule
        # Moving c ahead of the dying b lets it see b's last round.
        assert hits([c, a, b, x])["c"] == 2

    def test_dead_handle_rejected_before_any_probe(self):
        """An observer that does not pressure is refused before any
        observer's generator moves."""
        res = ContentionResource()
        res.start_pressure("a")
        rng_a = np.random.default_rng(9)
        before = str(rng_a.bit_generator.state)
        with pytest.raises(ValueError, match="ghost"):
            window_hits(
                [(res, "a", rng_a), (res, "ghost", np.random.default_rng(2))],
                60,
                [2, 2],
            )
        assert str(rng_a.bit_generator.state) == before

    def test_empty_input(self):
        hits = window_hits([], 60, [])
        assert hits.dtype == np.int64 and hits.size == 0


def store_handles(per_host, seed, services=1):
    """Handles on a hand-built instance store: ``per_host[h]`` instances of
    each service on host ``h``, no orchestrator.  Returns one handle list
    per service, in host order."""
    clock = SimClock()
    cpu = cpu_catalog()[0]
    hosts = [
        PhysicalHost(
            host_id=f"cap-{index:04d}",
            cpu=cpu,
            tsc=TimestampCounter(
                boot_time=0.0, actual_frequency_hz=cpu.reported_tsc_frequency_hz
            ),
        )
        for index in range(len(per_host))
    ]
    store = InstanceStore(clock, hosts)
    out = []
    for service in range(services):
        host_index = np.repeat(np.arange(len(per_host)), per_host)
        serials = np.arange(host_index.size) + service * 100_000
        rows = store.launch(
            store.service_index(f"svc{service}"),
            host_index,
            serials,
            seed * 1_000_003 + serials,
            clock.now(),
            clock.now(),
            GVisorSandbox,
        )
        out.append([InstanceHandle(instance) for instance in store.column(rows)])
    return out


class TestPassCap:
    """A batch whose draws exceed :data:`PASS_DRAWS` runs as several array
    passes cut at host boundaries, and still equals the loop oracle."""

    #: A big host of 9 observers, then 2 per host.  The big group's
    #: threshold (9) is above LLC saturation, and its odd size makes a
    #: later pass's positions differ from the batch's.
    LAYOUT = [9] + [2] * 80

    def _world(self, cls, plan):
        observers, externals = store_handles(self.LAYOUT, seed=31, services=2)
        # Every third host carries one pressurer outside the batch.
        for host_index in range(0, len(self.LAYOUT), 3):
            first = sum(self.LAYOUT[:host_index])
            externals[first].run(lambda sandbox: sandbox.start_channel_pressure("llc"))
        groups, thresholds, cursor = [], [], 0
        for size in self.LAYOUT:
            groups.append(observers[cursor : cursor + size])
            thresholds.append(9 if size == 9 else 2)
            cursor += size
        # One group straddling two hosts, so negatives stay exercised.
        groups[1], groups[2] = [groups[1][0], groups[2][0]], [groups[1][1], groups[2][1]]
        channel = cls(fault_plan=plan)
        results = channel.ctest_batch(groups, thresholds)
        return {
            "positives": [r.positive for r in results],
            "hits": dict(channel._last_hits),
            "states": {h.instance_id: rng_state(h) for h in observers},
            "faults": channel.stats.counter("faults_injected"),
        }

    def _passes(self, monkeypatch, plan):
        """Host indices of each pass the batched engine ran.

        The engine orders observers host-major; here that is host order,
        so a pass's observer span maps back to hosts through ``LAYOUT``.
        """
        spans = []
        real = rng_resource._Window.hits

        def spy(window, lo, hi):
            spans.append((lo, hi))
            return real(window, lo, hi)

        monkeypatch.setattr(rng_resource._Window, "hits", spy)
        self._world(LlcOccupancyChannel, plan)
        monkeypatch.undo()
        starts = list(np.cumsum([0] + self.LAYOUT))
        return [list(range(starts.index(lo), starts.index(hi))) for lo, hi in spans]

    def _observer(self, host, k):
        return f"svc0#{sum(self.LAYOUT[:host]) + k:07d}"

    def test_capped_passes_match_loop_oracle(self, monkeypatch):
        layout = self._passes(monkeypatch, None)
        assert len(layout) >= 3, "batch fits one pass; the cap is not exercised"
        first_pass, second_pass = layout[0], layout[1]
        assert len(first_pass) >= 2
        # Deaths on the first and last host of two passes; the late ones
        # keep the cuts where they are.
        deaths = {
            self._observer(first_pass[0], 0): 58,
            self._observer(first_pass[-1], 1): 59,
            self._observer(second_pass[0], 0): 0,
            self._observer(second_pass[-1], 1): 50,
        }
        assert self._passes(monkeypatch, ScriptedPlan(deaths)) == layout

        loop = self._world(loop_reference(LlcOccupancyChannel), ScriptedPlan(deaths))
        batched = self._world(LlcOccupancyChannel, ScriptedPlan(deaths))
        assert loop == batched
        assert batched["faults"] == len(deaths)
        assert all(batched["hits"][victim] < 60 for victim in deaths)
        # The big host's threshold sits above LLC saturation: never hit.
        big = next(p for p in batched["positives"] if len(p) == 9)
        assert not any(big)
        assert any(any(p) for p in batched["positives"])


def test_batch_peak_memory_is_bounded_by_the_pass_cap():
    """One ctest_batch over ~1,000 observers on ~330 hosts allocates at
    most a small multiple of one capped pass at its peak: the batch must
    not draw its whole window into one buffer."""
    (handles,) = store_handles([3] * 334, seed=5)
    for handle in handles:  # boot every sandbox outside the measurement
        handle.run(lambda sandbox: None)
    groups = [handles[i : i + 3] for i in range(0, len(handles), 3)]
    channel = RngCovertChannel()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        channel.ctest_batch(groups, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_pass = PASS_DRAWS * 8  # bytes of the float64 draw buffer
    assert peak - base < 16 * one_pass

"""Property-based twin-world tests for warm-world snapshots.

For arbitrary operation streams (launches, terminations, serving-pool
rotation, traffic evaluation via clock advance), a world snapshotted
mid-stream and restored must replay the *rest* of the stream exactly as
the original world does: same observable log, same subsequent RNG draws,
same fleet columns.  That is the warm-world contract the runner's
fork-instead-of-rebuild optimization rests on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cloud.services import ServiceConfig
from repro.cloud.traffic import TrafficConfig
from repro.errors import CloudError
from repro.experiments.base import SimulationEnv, default_env
from repro.faults import FaultPlan
from repro.runner import WorldSnapshot
from tests.conftest import tiny_profile

ops = st.lists(
    st.one_of(
        st.tuples(st.just("launch"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("sleep"), st.floats(min_value=0.1, max_value=300.0)),
        st.tuples(st.just("probe"), st.just(0)),
        st.tuples(st.just("disconnect"), st.just(0)),
        st.tuples(st.just("rotate"), st.just(0)),
    ),
    max_size=6,
)


def _apply(env: SimulationEnv, stream) -> list:
    """Run an op stream, returning a deterministic observable log."""
    client = env.attacker
    log: list = []
    for kind, arg in stream:
        try:
            if kind == "launch":
                handles = client.connect("svc", arg)
                log.append(sorted(h.instance_id for h in handles))
            elif kind == "sleep":
                env.clock.sleep(arg)
            elif kind == "probe":
                client.probe(f"{client.account_id}/svc")
            elif kind == "disconnect":
                client.disconnect("svc")
            elif kind == "rotate":
                log.append(list(env.datacenter.serving_pool()))
        except CloudError as error:
            # Faulted launches may exhaust their retry budget; the
            # *failure itself* must replay identically.
            log.append(type(error).__name__)
        log.append(env.clock.now())
    return log


def _observe(env: SimulationEnv) -> dict:
    """End-state digest: RNG stream position and fleet columns."""
    fleet = env.datacenter.fleet
    return {
        "draws": env.orchestrator._rng.integers(0, 2**31, size=8).tolist(),
        "now": env.clock.now(),
        "load_slots": fleet.load_slots.tolist(),
        "capacity_slots": fleet.capacity_slots.tolist(),
        "pool_order": fleet.pool_order.tolist(),
    }


def _twin_check(build, prefix, suffix) -> None:
    original = build()
    _apply(original, prefix)
    snapshot = WorldSnapshot.capture(original)
    want_log = _apply(original, suffix)
    want_end = _observe(original)

    restored = snapshot.fork()
    assert _apply(restored, suffix) == want_log
    got_end = _observe(restored)
    assert got_end["draws"] == want_end["draws"]
    assert got_end["now"] == want_end["now"]
    np.testing.assert_array_equal(
        got_end["load_slots"], want_end["load_slots"]
    )
    np.testing.assert_array_equal(
        got_end["capacity_slots"], want_end["capacity_slots"]
    )
    np.testing.assert_array_equal(
        got_end["pool_order"], want_end["pool_order"]
    )


@given(prefix=ops, suffix=ops, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_snapshot_restores_arbitrary_quiet_worlds(prefix, suffix, seed):
    def build() -> SimulationEnv:
        env = default_env(profile=tiny_profile(), seed=seed)
        env.attacker.deploy(ServiceConfig(name="svc"))
        return env

    _twin_check(build, prefix, suffix)


@given(prefix=ops, suffix=ops, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_snapshot_restores_live_background_worlds(prefix, suffix, seed):
    traffic = TrafficConfig(n_tenants=6, seed=seed)

    def build() -> SimulationEnv:
        env = default_env(
            profile=tiny_profile(), seed=seed, background=traffic
        )
        env.attacker.deploy(ServiceConfig(name="svc"))
        return env

    _twin_check(build, prefix, suffix)


@given(prefix=ops, suffix=ops, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_snapshot_restores_mid_wave_fault_plan_worlds(prefix, suffix, seed):
    """Direct capture/fork of a faulted world replays injections exactly.

    The *runner* never forks these (``EnvSpec.forkable`` is False because
    a restored plan detaches from the ambient plan's counters), but the
    snapshot mechanism itself must still be faithful: injection decisions
    are pure functions of (spec, identifiers), so a restored world's
    launch failures land on the same instances.
    """
    plan = FaultPlan.from_spec("launch=0.25,slow=0.1,seed=5")

    def build() -> SimulationEnv:
        env = default_env(
            profile=tiny_profile(), seed=seed, fault_plan=plan
        )
        env.attacker.deploy(ServiceConfig(name="svc"))
        env.attacker.connect("svc", 2)  # mid-wave: capture after launches
        return env

    _twin_check(build, prefix, suffix)

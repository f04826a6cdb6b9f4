"""Property-based equivalence of the batched CTest engine and the loop oracle.

For arbitrary placements, group shapes, thresholds, and fault-injected
mid-test deaths, twin worlds driven by the two engines must produce
identical :class:`~repro.core.covert.CTestResult` verdicts, identical
per-instance contention-hit counts, and identical sandbox RNG end states
— the engine-level byte-identity contract, explored randomly instead of
enumerated.
"""

from hypothesis import given, settings, strategies as st

from repro.cloud.services import ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.experiments.base import default_env
from repro.faults import FaultPlan, FaultSpec

from tests.conftest import tiny_profile
from tests.oracles.ctest import LoopRngCovertChannel


@st.composite
def engine_cases(draw):
    seed = draw(st.integers(0, 60))
    n = draw(st.integers(2, 12))
    group_size = draw(st.integers(2, 5))
    threshold = draw(st.integers(2, 3))
    death_rate = draw(st.sampled_from([0.0, 0.2, 0.6]))
    total_rounds = draw(st.sampled_from([8, 31, 60]))
    return seed, n, group_size, threshold, death_rate, total_rounds


def run_world(channel_cls, seed, n, group_size, threshold, death_rate, total_rounds):
    env = default_env(profile=tiny_profile(), seed=seed)
    client = env.attacker
    name = client.deploy(ServiceConfig(name="prop-engine"))
    handles = client.connect(name, n)
    channel = channel_cls(
        total_rounds=total_rounds,
        required_rounds=(total_rounds + 1) // 2,
        fault_plan=FaultPlan(FaultSpec(ctest_death_rate=death_rate, seed=seed)),
    )
    groups = [handles[i : i + group_size] for i in range(0, n, group_size)]
    results = channel.ctest_batch(groups, threshold)
    return {
        "verdicts": [
            (tuple(h.instance_id for h in r.handles), r.positive) for r in results
        ],
        "hits": dict(channel._last_hits),
        "rng_states": {
            h.instance_id: h.run(lambda s: str(s._rng.bit_generator.state))
            for h in handles
        },
        "faults": channel.stats.faults_injected,
    }


@given(engine_cases())
@settings(max_examples=20, deadline=None)
def test_vectorized_engine_equals_scalar_loop(case):
    loop_world = run_world(LoopRngCovertChannel, *case)
    batched_world = run_world(RngCovertChannel, *case)
    assert loop_world == batched_world

"""Property-based equivalence for the hyperscale batched paths.

Every path PR 8 batched gets a Hypothesis property pinning it to its
scalar reference on arbitrary inputs:

* :class:`FootprintAccumulator` == per-launch set algebra on arbitrary
  fingerprint streams;
* ``host_coverage`` (index-mask math) == the per-handle set loop on
  arbitrary fleets with dead and rotated-out instances.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.aggregation import FootprintAccumulator
from repro.cloud.services import ServiceConfig
from repro.experiments.base import default_env, host_coverage

from tests.conftest import tiny_profile
from tests.oracles.census import census_reduce_scalar

# ----------------------------------------------------------------------
# FootprintAccumulator == set algebra
# ----------------------------------------------------------------------


@given(
    launches=st.lists(
        st.lists(st.integers(0, 80), max_size=60), max_size=15
    )
)
def test_accumulator_matches_set_reduction(launches):
    ref_per, ref_cum = census_reduce_scalar(launches)
    acc = FootprintAccumulator()
    got = [acc.add_launch(launch) for launch in launches]
    assert [g[0] for g in got] == ref_per
    assert [g[1] for g in got] == ref_cum


# ----------------------------------------------------------------------
# host_coverage == per-handle set loop
# ----------------------------------------------------------------------


def host_coverage_scalar(env, attacker_handles, victim_handles):
    """The pre-columnar reference: host-id set intersection per campaign."""
    orch = env.orchestrator
    attacker_hosts = {
        orch.true_host_of(h.instance_id) for h in attacker_handles if h.alive
    }
    victims = [h for h in victim_handles if h.alive]
    if not victims:
        return 0.0, len(attacker_hosts)
    hits = sum(
        1 for h in victims if orch.true_host_of(h.instance_id) in attacker_hosts
    )
    return hits / len(victims), len(attacker_hosts)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_attacker=st.integers(0, 14),
    n_victim=st.integers(0, 14),
    kills=st.lists(st.integers(0, 27), max_size=8),
    rotate=st.booleans(),
)
def test_host_coverage_matches_scalar_loop(seed, n_attacker, n_victim, kills, rotate):
    env = default_env(profile=tiny_profile(), seed=seed)
    attacker, victim = env.clients["account-1"], env.clients["account-2"]
    handles_a = handles_v = []
    if n_attacker:
        attacker.deploy(ServiceConfig(name="atk"))
        handles_a = attacker.connect("atk", n_attacker)
    if n_victim:
        victim.deploy(ServiceConfig(name="vic"))
        handles_v = victim.connect("vic", n_victim)
    everyone = list(handles_a) + list(handles_v)
    now = env.orchestrator.clock.now()
    for k in kills:
        if everyone:
            inst = everyone[k % len(everyone)]._instance
            if inst.alive:
                env.orchestrator.instance_store.terminate(np.array([inst.row]), now)
    if rotate:
        # Rotated-out hosts keep serving existing instances; coverage
        # math must be independent of pool membership.
        env.datacenter._rotate_once()
    fast = host_coverage(env, handles_a, handles_v)
    slow = host_coverage_scalar(env, handles_a, handles_v)
    assert fast[1] == slow[1]
    assert abs(fast[0] - slow[0]) < 1e-12



"""Property-based equivalence for the hyperscale batched paths.

Every path PR 8 batched gets a Hypothesis property pinning it to its
scalar reference on arbitrary inputs:

* sparse service counts == a dense int64 column under any interleaving of
  scalar increments/decrements/batched ``add_at`` and any gather;
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
from repro.fleet import SparseServiceCounts

from tests.conftest import tiny_profile
from tests.oracles.census import census_reduce_scalar

# ----------------------------------------------------------------------
# SparseServiceCounts == dense column
# ----------------------------------------------------------------------

N_HOSTS = 24

sparse_ops = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.integers(0, N_HOSTS - 1)),
        st.tuples(st.just("dec"), st.integers(0, N_HOSTS - 1)),
        st.tuples(st.just("set"), st.integers(0, N_HOSTS - 1)),
        st.tuples(
            st.just("add_at"),
            st.lists(st.integers(0, N_HOSTS - 1), max_size=40),
        ),
    ),
    max_size=30,
)


@given(ops=sparse_ops, gather=st.lists(st.integers(0, N_HOSTS - 1), max_size=30))
def test_sparse_counts_match_dense_column(ops, gather):
    sparse = SparseServiceCounts(N_HOSTS)
    dense = np.zeros(N_HOSTS, dtype=np.int64)
    for op, arg in ops:
        if op == "inc":
            sparse.inc(arg)
            dense[arg] += 1
        elif op == "dec":
            sparse.dec(arg)
            if dense[arg] > 0:
                dense[arg] -= 1
        elif op == "set":
            sparse[arg] = 7
            dense[arg] = 7
        else:
            idx = np.asarray(arg, dtype=np.int64)
            sparse.add_at(idx)
            np.add.at(dense, idx, 1)
    assert sparse.tolist() == dense.tolist()
    assert sparse.sum() == int(dense.sum())
    wanted = np.asarray(gather, dtype=np.int64)
    assert sparse[wanted].tolist() == dense[wanted].tolist()
    for i in range(N_HOSTS):
        assert sparse[i] == int(dense[i])
    # The memory contract: entries only for hosts ever touched.
    assert sparse.touched <= N_HOSTS


@given(ops=sparse_ops)
def test_sparse_counts_copy_and_restore_round_trip(ops):
    sparse = SparseServiceCounts(N_HOSTS)
    for op, arg in ops:
        if op == "add_at":
            sparse.add_at(np.asarray(arg, dtype=np.int64))
        elif op == "inc":
            sparse.inc(arg)
        elif op == "dec":
            sparse.dec(arg)
        else:
            sparse[arg] = 7
    frozen = sparse.copy()
    baseline = sparse.tolist()
    sparse.inc(0)
    sparse.add_at(np.arange(N_HOSTS, dtype=np.int64))
    assert frozen.tolist() == baseline  # copies are isolated
    sparse.restore_from(frozen)
    assert sparse.tolist() == baseline


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



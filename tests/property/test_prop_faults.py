"""Property-based tests for batch-planning safety and fault determinism.

The batch planner's one safety invariant: two group tests may share a
batch only when their groups are *guaranteed* host-disjoint.  With Gen 1
fingerprints that guarantee comes solely from distinct ``model_key``
values, so within a batch every key must be unique and a key-less
(``model_key=None``) group must never have company.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from hypothesis import example, given, settings, strategies as st

from repro.core.verification import ScalableVerifier, _GroupTask
from repro.faults import FaultPlan, FaultSpec, hashed_uniform


@dataclass(frozen=True)
class FakeHandle:
    """Minimal stand-in for an InstanceHandle."""

    instance_id: str


model_keys = st.one_of(st.none(), st.sampled_from(["xeon", "epyc", "ice", "milan"]))


@st.composite
def batch_requests(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    requests = []
    for index in range(n):
        key = draw(model_keys)
        handles = [FakeHandle(f"g{index}-{j}") for j in range(draw(st.integers(1, 3)))]
        requests.append((_GroupTask(handles, key), handles))
    return requests


@given(batch_requests())
@settings(max_examples=120, deadline=None)
def test_no_batch_contains_groups_that_could_share_a_host(requests):
    batches = ScalableVerifier._plan_batches(requests, no_false_negatives=False)
    for batch in batches:
        keys = [task.model_key for task, _test in batch]
        if any(key is None for key in keys):
            # A key-less group carries no disjointness guarantee against
            # anyone: it must be tested in a batch of its own.
            assert len(batch) == 1
        else:
            # Same model key == possibly the same host: never batched.
            assert len(keys) == len(set(keys))


@given(batch_requests())
@settings(max_examples=60, deadline=None)
def test_every_request_planned_exactly_once(requests):
    batches = ScalableVerifier._plan_batches(requests, no_false_negatives=False)
    planned = [task for batch in batches for task, _test in batch]
    assert sorted(map(id, planned)) == sorted(id(task) for task, _test in requests)


fault_specs = st.builds(
    FaultSpec,
    launch_error_rate=st.floats(0.0, 1.0),
    ctest_noise_rate=st.floats(0.0, 1.0),
    ctest_death_rate=st.floats(0.0, 1.0),
    cell_error_rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)

tokens = st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=30)


@given(fault_specs, tokens)
@settings(max_examples=80, deadline=None)
def test_fault_schedule_is_a_pure_function_of_seed_and_token(spec, names):
    """Two plans with the same spec agree on every decision, in any call
    order — the invariant that keeps serial and pooled runs identical."""
    a, b = FaultPlan(spec), FaultPlan(spec)
    forward = [
        (a.launch_fails(t, 0), a.ctest_noise(t), a.ctest_death_round(t, 60))
        for t in names
    ]
    backward = [
        (b.launch_fails(t, 0), b.ctest_noise(t), b.ctest_death_round(t, 60))
        for t in reversed(names)
    ]
    assert forward == list(reversed(backward))


@given(fault_specs, tokens)
@settings(max_examples=80, deadline=None)
def test_death_rounds_stay_in_range(spec, names):
    plan = FaultPlan(spec)
    for token in names:
        when = plan.ctest_death_round(token, 60)
        assert when is None or 0 <= when < 60


def reference_uniform(seed, site: str, token: str) -> float:
    """The draw's definition: one SHA-256 of the whole formatted name."""
    digest = hashlib.sha256(f"{seed}|{site}|{token}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    site=st.text(max_size=12),
    tokens=st.lists(st.text(max_size=40), min_size=1, max_size=6),
)
@example(seed=2**63 - 1, site="ctest-noise", tokens=["b0:svc-é#0000001", "☃", ""])
@example(seed=1, site="traffic-idle", tokens=["x"])
def test_hashed_uniform_matches_formatted_hash(seed, site, tokens):
    # Each site is hashed once per seed and reused: draws repeat, in any
    # order, and a bool or float seed formats differently from the int.
    for token in tokens + tokens[::-1]:
        assert hashed_uniform(seed, site, token) == reference_uniform(seed, site, token)
    for alias in (bool(seed), float(seed)):
        assert hashed_uniform(alias, site, tokens[0]) == reference_uniform(alias, site, tokens[0])

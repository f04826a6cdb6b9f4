"""Property-based tests for the placement policy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.placement import PlacementPolicy, PlacementRequest
from repro.errors import NoCapacityError
from repro.fleet import FleetStore

from tests.oracles.placement import place_heap


@st.composite
def placement_cases(draw):
    n_hosts = draw(st.integers(min_value=1, max_value=12))
    capacity = draw(st.floats(min_value=4.0, max_value=64.0))
    slots = draw(st.sampled_from([0.25, 1.0, 2.0, 4.0]))
    per_host = int(capacity // slots)
    max_count = n_hosts * per_host
    count = draw(st.integers(min_value=0, max_value=max(0, min(max_count, 80))))
    seed = draw(st.integers(min_value=0, max_value=1000))
    return n_hosts, capacity, slots, count, seed


def build(n_hosts, capacity):
    store = FleetStore([f"h{i}" for i in range(n_hosts)], capacity_slots=capacity)
    return store, store.all_indices.copy()


@given(placement_cases())
@settings(max_examples=60)
def test_capacity_never_exceeded(case):
    n_hosts, capacity, slots, count, seed = case
    store, allowed = build(n_hosts, capacity)
    policy = PlacementPolicy(np.random.default_rng(seed))
    placed = policy.place(
        PlacementRequest(count=count, slots_per_instance=slots, allowed=allowed),
        store,
    )
    assert len(placed) == count
    picks = np.bincount(placed, minlength=n_hosts)
    for index in range(n_hosts):
        used = store.load_slots[index]
        assert used <= capacity + 1e-9
        assert used == picks[index] * slots

@given(placement_cases())
@settings(max_examples=60)
def test_spread_is_near_uniform(case):
    n_hosts, capacity, slots, count, seed = case
    store, allowed = build(n_hosts, capacity)
    policy = PlacementPolicy(np.random.default_rng(seed))
    placed = policy.place(
        PlacementRequest(count=count, slots_per_instance=slots, allowed=allowed),
        store,
    )
    counts = np.bincount(placed, minlength=n_hosts)
    # With no capacity pressure the per-service counts differ by <= 1;
    # capacity clipping can only widen the gap when hosts fill up.
    if counts.max() * slots <= capacity:
        assert counts.max() - counts.min() <= 1


@given(placement_cases(), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40)
def test_deterministic_in_seed(case, seed2):
    n_hosts, capacity, slots, count, seed = case

    def run(s):
        store, allowed = build(n_hosts, capacity)
        policy = PlacementPolicy(np.random.default_rng(s))
        return policy.place(
            PlacementRequest(count=count, slots_per_instance=slots, allowed=allowed),
            store,
        ).tolist()

    assert run(seed) == run(seed)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_hosts=st.integers(1, 6),
    count=st.integers(0, 64),
    slots=st.sampled_from([0.5, 1.0, 2.0]),
    data=st.data(),
)
def test_degenerate_capacities(seed, n_hosts, count, slots, data):
    """Zero-capacity hosts, exactly-full hosts, hosts with room for
    about ``count`` instances and uneven starting service counts.  Slot
    sizes are powers of two, so every load sum is exact.

    Placement raises exactly when the hosts' whole free slots fall short
    of the batch, never overfills a host, and a scatter-free batch draws
    one tiebreak per allowed host and nothing else.
    """
    margin = (count + 1) * slots
    capacities = data.draw(
        st.lists(
            st.sampled_from([0.0, slots, margin - slots, margin, margin + slots, 1e6]),
            min_size=n_hosts,
            max_size=n_hosts,
        )
    )
    loads = [
        data.draw(st.sampled_from([0.0, cap / 2, max(0.0, cap - margin), cap]))
        for cap in capacities
    ]
    start_counts = data.draw(
        st.lists(st.integers(0, 3), min_size=n_hosts, max_size=n_hosts)
    )
    store = FleetStore(
        [f"h{i:03d}" for i in range(n_hosts)],
        capacity_slots=np.asarray(capacities, dtype=np.float64),
    )
    store.load_slots[:] = loads
    request = PlacementRequest(
        count=count,
        slots_per_instance=slots,
        allowed=store.all_indices.copy(),
        allowed_counts=np.asarray(start_counts, dtype=np.int64),
    )
    rng = np.random.default_rng(seed)
    free = sum(int((cap - load) // slots) for cap, load in zip(capacities, loads))

    if free < count:
        with pytest.raises(NoCapacityError):
            PlacementPolicy(rng).place(request, store)
    else:
        placed = PlacementPolicy(rng).place(request, store)
        assert len(placed) == count
        assert (store.load_slots <= store.capacity_slots).all()
        picks = np.bincount(placed, minlength=n_hosts)
        assert store.load_slots.tolist() == (np.asarray(loads) + picks * slots).tolist()
    # Identical trailing draws == identical RNG stream consumption.
    twin = np.random.default_rng(seed)
    twin.random(n_hosts)
    assert rng.random(4).tolist() == twin.random(4).tolist()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_hosts=st.integers(1, 12),
    count=st.integers(0, 48),
    slots=st.sampled_from([0.25, 1.0, 2.0]),
    scatter=st.sampled_from([0.0, 0.3, 0.9]),
    data=st.data(),
)
def test_matches_whole_heap(seed, n_hosts, count, slots, scatter, data):
    """Picks, loads, the capacity error and the RNG end state equal the
    historical one-heap loop, with scatter draws, hosts that fill mid-batch
    and allowed sets in any order."""
    allowed = np.asarray(data.draw(st.permutations(range(n_hosts))), dtype=np.int64)
    allowed = allowed[: data.draw(st.integers(1, n_hosts))]
    capacities = data.draw(
        st.lists(
            st.sampled_from([0.0, slots, 4 * slots, 64.0]),
            min_size=n_hosts,
            max_size=n_hosts,
        )
    )
    start_counts = data.draw(
        st.lists(st.integers(0, 3), min_size=n_hosts, max_size=n_hosts)
    )

    def run(place):
        store = FleetStore(
            [f"h{i:03d}" for i in range(n_hosts)],
            capacity_slots=np.asarray(capacities, dtype=np.float64),
        )
        request = PlacementRequest(
            count=count,
            slots_per_instance=slots,
            allowed=allowed,
            allowed_counts=np.asarray(start_counts, dtype=np.int64)[allowed],
            scatter_probability=scatter,
            scatter_candidates=store.all_indices,
        )
        rng = np.random.default_rng(seed)
        try:
            picks = list(place(rng, request, store))
        except NoCapacityError:
            picks = None
        return picks, store.load_slots.tolist(), rng.random(4).tolist()

    def policy_place(rng, request, store):
        return PlacementPolicy(rng).place(request, store).tolist()

    assert run(policy_place) == run(place_heap)

"""Property-based tests for request patterns and request-driven scaling."""

from hypothesis import given, settings, strategies as st

from repro import units
from repro.cloud.services import ServiceConfig
from repro.cloud.workloads import BurstLoad, DiurnalLoad, TraceLoad
from repro.experiments.base import default_env

from tests.conftest import follow_pattern, tiny_profile


@given(
    trough=st.integers(0, 20),
    span=st.integers(0, 30),
    period_h=st.floats(0.5, 48.0),
    at_h=st.floats(0.0, 96.0),
)
def test_diurnal_stays_in_band(trough, span, period_h, at_h):
    load = DiurnalLoad(trough=trough, peak=trough + span, period_s=period_h * units.HOUR)
    level = load.concurrency_at(at_h * units.HOUR)
    assert trough <= level <= trough + span


@given(
    times=st.lists(st.floats(0.0, 1e5), min_size=1, max_size=20),
    at=st.floats(0.0, 2e5),
)
def test_trace_always_returns_a_sample_value(times, at):
    times = sorted(times)
    values = list(range(len(times)))
    trace = TraceLoad(times, values)
    assert trace.concurrency_at(at) in values


@given(
    samples=st.lists(
        st.tuples(st.floats(0.0, 1e5), st.integers(0, 100)),
        min_size=1,
        max_size=30,
    ),
    at=st.floats(-100.0, 2e5),
)
def test_trace_bisect_matches_linear_scan(samples, at):
    """The O(log n) bisect lookup is pinned to the old O(n) hold-last
    scan — including duplicate sample times (last duplicate wins) and
    queries before trace start (first sample holds)."""
    times = sorted(t for t, _v in samples)
    values = [v for _t, v in samples]
    trace = TraceLoad(times, values)
    index = 0
    for i, t in enumerate(times):  # the pre-bisect reference scan
        if t <= at:
            index = i
        else:
            break
    assert trace.concurrency_at(at) == values[index]


@given(
    base=st.integers(0, 10),
    extra=st.integers(0, 10),
    start=st.floats(0.0, 1e4),
    duration=st.floats(0.0, 1e4),
    at=st.floats(0.0, 3e4),
)
def test_burst_is_base_or_burst(base, extra, start, duration, at):
    load = BurstLoad(
        base=base, burst=base + extra, burst_start_s=start, burst_duration_s=duration
    )
    assert load.concurrency_at(at) in (base, base + extra)


@st.composite
def demand_sequences(draw):
    seed = draw(st.integers(0, 30))
    demands = draw(st.lists(st.integers(0, 18), min_size=1, max_size=8))
    return seed, demands


@given(demand_sequences())
@settings(max_examples=12, deadline=None)
def test_autoscaler_tracks_any_demand_sequence(case):
    """Whatever the demand path, after each evaluation the active count
    equals the clamped target and never exceeds max_instances."""
    seed, demands = case
    env = default_env(profile=tiny_profile(), seed=seed)
    service = env.orchestrator.deploy_service(
        "account-1", ServiceConfig(name="prop-auto", max_instances=20)
    )
    trace = TraceLoad([i * 15.0 for i in range(len(demands))], demands)
    points = follow_pattern(env.orchestrator, service, trace, len(demands) * 15.0)
    for point in points:
        assert point.active == min(point.demand, 20)
        assert point.alive >= point.active

"""Property-based tests for the telemetry subsystem's core guarantees.

Three invariants carry the golden-trace machinery:

* spans always nest — every record's parent is the span that was open
  when it was opened, and a child's simulated interval lies inside its
  parent's;
* counter and histogram totals are independent of execution order and of
  how increments are partitioned across handles (what makes worker-side
  merge exact); and
* enabling telemetry never changes what an experiment computes — the
  instrumented code paths are observation only.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.cloud.services import ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier
from repro.experiments.base import default_env
from repro.simtime.clock import SimClock
from repro.telemetry import MetricSet, Telemetry, telemetry_context

# One step of a random instrumentation program: open a span, close the
# innermost span, record an event, or advance simulated time.
actions = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.sampled_from(["a", "b", "c", "d"])),
        st.tuples(st.just("close"), st.none()),
        st.tuples(st.just("event"), st.sampled_from(["e", "f"])),
        st.tuples(st.just("sleep"), st.floats(min_value=0.5, max_value=60.0)),
    ),
    max_size=40,
)


def run_program(program) -> Telemetry:
    tm = Telemetry()
    tm.use_clock(SimClock())
    open_spans = []
    for action, arg in program:
        if action == "open":
            open_spans.append(tm.span(arg))
        elif action == "close" and open_spans:
            open_spans.pop().close()
        elif action == "event":
            tm.event(arg)
        elif action == "sleep":
            tm._clock.sleep(arg)
    while open_spans:
        open_spans.pop().close()
    return tm


@given(actions)
@settings(max_examples=150, deadline=None)
def test_spans_always_nest(program):
    tm = run_program(program)
    records = tm.records()
    by_id = {span.span_id: span for span in records}
    for span in records:
        # Ids are assigned at open time, so a parent always precedes its
        # children — no orphans, no forward references.
        if span.parent_id is not None:
            assert span.parent_id in by_id
            assert span.parent_id < span.span_id
            parent = by_id[span.parent_id]
            # Child interval inside the parent's (both are closed).
            assert parent.t0 <= span.t0
            assert span.t1 <= parent.t1
        assert span.t0 <= span.t1


@given(actions)
@settings(max_examples=60, deadline=None)
def test_identical_programs_trace_identically(program):
    from repro.telemetry import span_lines

    assert span_lines(run_program(program)) == span_lines(run_program(program))


increments = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z"]), st.integers(-5, 5)),
    max_size=30,
)


@given(increments, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_counter_totals_are_order_independent(entries, rnd):
    forward, shuffled = MetricSet(), MetricSet()
    for name, n in entries:
        forward.inc(name, n)
    reordered = list(entries)
    rnd.shuffle(reordered)
    for name, n in reordered:
        shuffled.inc(name, n)
    assert forward.counters == shuffled.counters


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["h1", "h2"]),
            st.floats(min_value=-100, max_value=100),
        ),
        max_size=30,
    ),
    st.integers(min_value=0, max_value=30),
)
@settings(max_examples=150, deadline=None)
def test_partitioned_merge_equals_whole(observations, split):
    split = min(split, len(observations))
    whole, left, right = MetricSet(), MetricSet(), MetricSet()
    for name, value in observations:
        whole.observe(name, value)
        whole.inc(name)
    for name, value in observations[:split]:
        left.observe(name, value)
        left.inc(name)
    for name, value in observations[split:]:
        right.observe(name, value)
        right.inc(name)
    left.merge(right)
    assert left.counters == whole.counters
    assert set(left.histograms) == set(whole.histograms)
    for name, merged in left.histograms.items():
        reference = whole.histograms[name]
        assert merged.count == reference.count
        assert merged.min == reference.min
        assert merged.max == reference.max
        # Float addition is not associative: partitioned partial sums may
        # differ from the straight-line sum in the last bits.
        assert math.isclose(
            merged.total, reference.total, rel_tol=1e-9, abs_tol=1e-9
        )


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_enabling_telemetry_never_changes_results(seed):
    def verify_once():
        from tests.conftest import tiny_profile

        env = default_env(profile=tiny_profile(), seed=seed)
        client = env.attacker
        service = client.deploy(ServiceConfig(name="svc"))
        handles = client.connect(service, 16)
        pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
        report = ScalableVerifier(RngCovertChannel()).verify(pairs)
        clusters = sorted(
            tuple(sorted(h.instance_id for h in cluster))
            for cluster in report.clusters
        )
        return clusters, report.n_tests, report.n_batches, report.busy_seconds

    plain = verify_once()
    with telemetry_context(Telemetry()):
        traced = verify_once()
    assert traced == plain

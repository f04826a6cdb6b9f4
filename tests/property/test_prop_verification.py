"""Property-based tests for group-testing invariants of the verifier.

These drive the verifier against a *synthetic* covert channel whose ground
truth is drawn by hypothesis, checking exact cluster recovery regardless of
how instances are distributed over hosts and how fingerprints lie.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.core.covert import CovertChannel, CTestResult
from repro.core.verification import ScalableVerifier


@dataclass(frozen=True)
class FakeHandle:
    """Minimal stand-in for an InstanceHandle."""

    instance_id: str


class OracleChannel(CovertChannel):
    """A noise-free covert channel driven by a known host map."""

    def __init__(self, host_of: dict[str, int]) -> None:
        super().__init__()
        self.host_of = host_of

    def ctest_batch(self, groups, threshold_m):
        if isinstance(threshold_m, int):
            thresholds = [threshold_m] * len(groups)
        else:
            thresholds = list(threshold_m)
        flat = [h for group in groups for h in group]
        counts: dict[int, int] = {}
        for handle in flat:
            host = self.host_of[handle.instance_id]
            counts[host] = counts.get(host, 0) + 1
        self.record_batch([len(g) for g in groups], 1.0)
        results = []
        for group, threshold in zip(groups, thresholds):
            positive = tuple(
                counts[self.host_of[h.instance_id]] >= threshold for h in group
            )
            results.append(CTestResult(handles=tuple(group), positive=positive))
        return results


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    n_hosts = draw(st.integers(min_value=1, max_value=10))
    host_of = {f"i{k}": draw(st.integers(0, n_hosts - 1)) for k in range(n)}
    # Fingerprints may be arbitrarily wrong: each instance gets a label
    # loosely correlated (or not) with its host.
    lie = draw(st.booleans())
    fingerprints = {}
    for iid, host in host_of.items():
        if lie:
            fingerprints[iid] = draw(st.integers(0, n_hosts))
        else:
            fingerprints[iid] = host
    return host_of, fingerprints


def true_clusters(host_of):
    clusters: dict[int, set] = {}
    for iid, host in host_of.items():
        clusters.setdefault(host, set()).add(iid)
    return {frozenset(members) for members in clusters.values()}


@given(scenarios())
@settings(max_examples=80, deadline=None)
def test_verifier_recovers_exact_clusters(scenario):
    host_of, fingerprints = scenario
    tagged = [(FakeHandle(iid), fingerprints[iid]) for iid in host_of]
    channel = OracleChannel(host_of)
    report = ScalableVerifier(channel).verify(tagged)
    found = {
        frozenset(h.instance_id for h in cluster) for cluster in report.clusters
    }
    assert found == true_clusters(host_of)


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_verifier_never_exceeds_pairwise_cost(scenario):
    host_of, fingerprints = scenario
    tagged = [(FakeHandle(iid), fingerprints[iid]) for iid in host_of]
    channel = OracleChannel(host_of)
    report = ScalableVerifier(channel).verify(tagged)
    n = len(host_of)
    # Even with adversarial fingerprints, cost stays within a small factor
    # of the pairwise bound (fallbacks are per-group).
    assert report.n_tests <= n * (n - 1) // 2 + 2 * n + 1


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_accurate_fingerprints_cost_linear_in_hosts(scenario):
    host_of, _ = scenario
    tagged = [(FakeHandle(iid), host_of[iid]) for iid in host_of]
    channel = OracleChannel(host_of)
    report = ScalableVerifier(channel).verify(tagged)
    n_hosts = len(set(host_of.values()))
    n = len(host_of)
    # O(M)-ish: chunk tests + merge tests + the step-3 sweep.
    assert report.n_tests <= 2 * (n // 2 + n_hosts) + 1


# ----------------------------------------------------------------------
# Fallback negative memory: root-keyed adjacency == set of root pairs
# ----------------------------------------------------------------------
def _fallback_twins(n_units: int):
    from repro.core.verification import _Fallback
    from tests.oracles.verification import PairSetFallback

    return [
        cls([[FakeHandle(f"i{k}")] for k in range(n_units)])
        for cls in (_Fallback, PairSetFallback)
    ]


@st.composite
def fallback_scripts(draw):
    n_units = draw(st.integers(2, 14))
    unit = st.integers(0, n_units - 1)
    step = st.one_of(
        # Test the next unsettled pair and record its verdict.
        st.tuples(st.just("next"), st.booleans()),
        # Apply a verdict to an arbitrary pair, as a retry or the
        # false-negative hunt could.
        st.tuples(st.just("merge"), unit, unit),
        st.tuples(st.just("negative"), unit, unit),
    )
    return n_units, draw(st.lists(step, max_size=80))


@given(fallback_scripts())
@settings(max_examples=200, deadline=None)
def test_fallback_negatives_match_pair_set_oracle(script):
    """Random negatives and merges give the same sequence of unsettled
    pairs and the same final clusters in both negative memories."""
    n_units, steps = script
    fallback, oracle = _fallback_twins(n_units)
    scans = [fallback.unsettled_pairs(), oracle.unsettled_pairs()]
    twins = [fallback, oracle]

    def next_pair(verdict):
        """Test the next unsettled pair in both; False once none is left."""
        pairs = [next(scan, None) for scan in scans]
        assert pairs[0] == pairs[1]
        if pairs[0] is None:
            return False
        for twin in twins:
            if verdict:
                twin.merge(*pairs[0])
            else:
                twin.record_negative(*pairs[0])
        return True

    for step in steps:
        if step[0] == "next":
            next_pair(step[1])
            continue
        _op, i, j = step
        for twin in twins:
            if step[0] == "merge":
                twin.merge(i, j)
            else:
                twin.record_negative(i, j)
    while next_pair(False):
        pass
    assert [[h.instance_id for h in c] for c in fallback.clusters()] == [
        [h.instance_id for h in c] for c in oracle.clusters()
    ]

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
# Host basis == the paper's pairwise fallback on a noise-free channel
# ----------------------------------------------------------------------
def _drain(tests, host_of):
    """Run a step-2 test generator against ``host_of``: its return value
    and the number of tests it made."""
    channel = OracleChannel(host_of)
    try:
        handles, threshold = next(tests)
        while True:
            (result,) = channel.ctest_batch([handles], [threshold])
            handles, threshold = tests.send(result)
    except StopIteration as stop:
        return stop.value, channel.stats.counter("tests")


@st.composite
def unit_scenarios(draw):
    """Units of one to three handles on one host each, in random order."""
    n_units = draw(st.integers(1, 25))
    n_hosts = draw(st.integers(1, 8))
    hosts = draw(st.lists(st.integers(0, n_hosts - 1), min_size=n_units, max_size=n_units))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n_units, max_size=n_units))
    order = draw(st.permutations(range(n_units)))
    host_of = {}
    units = []
    for unit in order:
        ids = [f"u{unit}.{k}" for k in range(sizes[unit])]
        host_of.update((iid, hosts[unit]) for iid in ids)
        units.append([FakeHandle(iid) for iid in ids])
    return units, host_of


@given(unit_scenarios())
@settings(max_examples=200, deadline=None)
def test_host_basis_matches_pairwise_fallback_oracle(scenario):
    """On a noise-free channel the basis gives the pair scan's clusters,
    in the same order, in at most one test per unit after the first."""
    from repro.core.verification import _basis_tests
    from tests.oracles.verification import pairwise_fallback_tests

    units, host_of = scenario
    basis, n_tests = _drain(_basis_tests(units), host_of)
    oracle, _n_pairs = _drain(pairwise_fallback_tests(units), host_of)
    ids = [[h.instance_id for h in c] for c in basis]
    assert ids == [[h.instance_id for h in c] for c in oracle]
    assert {frozenset(c) for c in ids} == true_clusters(host_of)
    assert n_tests == len(units) - 1

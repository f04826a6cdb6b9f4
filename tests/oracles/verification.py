"""The paper's pairwise fallback (reference for the verifier's host basis).

When a fingerprint group's chunk tests disagree, the paper falls back to
pairwise tests.  Step 2 used to do exactly that between the group's chunk
clusters ("units"): a :class:`~repro.core.clusters.DisjointSet` merged
units that tested positive, and negative verdicts were remembered between
cluster roots, so a pair was skipped once transitivity or an earlier
negative settled it.  That costs ~units x hosts tests where the host basis
of :func:`repro.core.verification._basis_tests` costs one per unit;
``tests/property/test_prop_verification.py`` pins the basis to this scan
on a noise-free channel.
"""

from __future__ import annotations

from typing import Collection, Generator, Iterator

from repro.core.clusters import DisjointSet
from repro.core.covert import CTestResult
from repro.core.verification import Clusters, Test


class PairwiseFallback:
    """Pairwise testing between verified units, pruned by transitivity.

    Each unit is a list of handles already known to share a host; a test
    uses its first handle.  Negative verdicts are kept as a symmetric
    ``root -> roots known to be on other hosts`` adjacency.
    """

    def __init__(self, units: Clusters) -> None:
        self.units = units
        self.ds = DisjointSet(range(len(units)))
        self.negatives: dict[int, set[int]] = {}

    def negatives_of(self, root: int) -> Collection[int]:
        """Roots known to be on another host than cluster ``root``."""
        return self.negatives.get(root, ())

    def record_negative(self, i: int, j: int) -> None:
        """Remember that the units' current clusters are on different hosts."""
        root_i, root_j = self.ds.find(i), self.ds.find(j)
        if root_i != root_j:
            self.negatives.setdefault(root_i, set()).add(root_j)
            self.negatives.setdefault(root_j, set()).add(root_i)

    def merge(self, i: int, j: int) -> None:
        """Union two units, migrating negative knowledge to the new root.

        Host identity is an equivalence relation, so a cluster's negative
        verdicts extend to everything merged into it.
        """
        old_i, old_j = self.ds.find(i), self.ds.find(j)
        self.ds.union(i, j)
        new_root = self.ds.find(i)
        negatives = self.negatives
        moved = negatives.pop(old_i, set()) | negatives.pop(old_j, set())
        moved -= {old_i, old_j}
        for other in moved:
            neighbours = negatives[other]
            neighbours.discard(old_i)
            neighbours.discard(old_j)
            neighbours.add(new_root)
        if moved:
            negatives[new_root] = moved

    def unsettled_pairs(self) -> Iterator[tuple[int, int]]:
        """Unit pairs in lexicographic order that are still open when the
        scan reaches them; the caller records each verdict before resuming."""
        find = self.ds.find
        n = len(self.units)
        for i in range(n):
            for j in range(i + 1, n):
                root_i, root_j = find(i), find(j)
                if root_j != root_i and root_j not in self.negatives_of(root_i):
                    yield i, j

    def clusters(self) -> Clusters:
        """The merged units, one block of handles per cluster."""
        return [
            [handle for idx in index_cluster for handle in self.units[idx]]
            for index_cluster in self.ds.clusters()
        ]


def pairwise_fallback_tests(
    units: Clusters,
) -> Generator[Test, CTestResult, Clusters]:
    """The pair scan in the verifier's step-2 test protocol: yields each
    ``(handles, threshold)`` test, is sent its result, returns clusters."""
    fallback = PairwiseFallback(units)
    for i, j in fallback.unsettled_pairs():
        result = yield [units[i][0], units[j][0]], 2
        if all(result.positive):
            fallback.merge(i, j)
        else:
            fallback.record_negative(i, j)
    return fallback.clusters()

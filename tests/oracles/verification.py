"""Set-of-pairs negative memory (reference for ``_Fallback``'s root-keyed one).

The verifier's pairwise fallback remembers which clusters tested negative
against each other.  This keeps that memory as one set of root pairs and
rebuilds the whole set on every merge, quadratic over a fallback but
obviously right; the property suite pins the root-keyed adjacency in
:class:`repro.core.verification._Fallback` to it.  The pair scan, the
union-find and the cluster blocks are the verifier's own.
"""

from __future__ import annotations

from repro.core.verification import _Fallback


class PairSetFallback(_Fallback):
    """``_Fallback`` with its negatives as ``set[frozenset]`` of roots."""

    def __init__(self, units) -> None:
        super().__init__(units)
        self.negatives = set()  # type: ignore[assignment]

    def negatives_of(self, root: int) -> set[int]:
        return {
            other
            for pair in self.negatives  # type: ignore[attr-defined]
            if root in pair
            for other in pair - {root}
        }

    def record_negative(self, i: int, j: int) -> None:
        self.negatives.add(  # type: ignore[attr-defined]
            frozenset((self.ds.find(i), self.ds.find(j)))
        )

    def merge(self, i: int, j: int) -> None:
        old_i, old_j = self.ds.find(i), self.ds.find(j)
        self.ds.union(i, j)
        new_root = self.ds.find(i)
        migrated = set()
        for pair in self.negatives:  # type: ignore[attr-defined]
            others = pair - {old_i, old_j}
            if len(others) == len(pair):
                migrated.add(pair)
            elif others:
                migrated.add(frozenset((new_root, next(iter(others)))))
        self.negatives = migrated  # type: ignore[assignment]

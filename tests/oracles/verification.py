"""Set-of-pairs negative memory (reference for ``_GroupTask``'s root-keyed one).

The verifier's pairwise fallback remembers which clusters tested negative
against each other.  This keeps that memory as one set of root pairs and
rebuilds the whole set on every merge, quadratic over a fallback but
obviously right; the property suite pins the root-keyed adjacency in
:class:`repro.core.verification._GroupTask` to it.
"""

from __future__ import annotations

from repro.cloud.api import InstanceHandle
from repro.core.verification import _GroupTask


class PairSetGroupTask(_GroupTask):
    """``_GroupTask`` with its fallback negatives as ``set[frozenset]``."""

    def enter_fallback(self) -> None:
        super().enter_fallback()
        self.fallback_negatives = set()  # type: ignore[assignment]

    def record_fallback_negative(self, i: int, j: int) -> None:
        assert self.fallback_ds is not None
        self.fallback_negatives.add(  # type: ignore[attr-defined]
            frozenset((self.fallback_ds.find(i), self.fallback_ds.find(j)))
        )

    def merge_fallback_units(self, i: int, j: int) -> None:
        assert self.fallback_ds is not None
        old_i, old_j = self.fallback_ds.find(i), self.fallback_ds.find(j)
        self.fallback_ds.union(i, j)
        new_root = self.fallback_ds.find(i)
        migrated = set()
        for pair in self.fallback_negatives:
            others = pair - {old_i, old_j}
            if len(others) == len(pair):
                migrated.add(pair)
            elif others:
                migrated.add(frozenset((new_root, next(iter(others)))))
        self.fallback_negatives = migrated  # type: ignore[assignment]

    def next_fallback_pair(self) -> list[InstanceHandle] | None:
        assert self.fallback_ds is not None
        while self.fallback_pairs:
            i, j = self.fallback_pairs[0]
            root_i, root_j = self.fallback_ds.find(i), self.fallback_ds.find(j)
            settled = root_i == root_j or (
                frozenset((root_i, root_j)) in self.fallback_negatives
            )
            if settled:
                self.fallback_pairs.popleft()
                continue
            return [self.fallback_units[i][0], self.fallback_units[j][0]]
        return None

"""Batched attacker-side aggregation for hyperscale campaigns.

A census campaign at 64x fleet scale fingerprints ~1M instances across
hundreds of launches and reduces them to two curves: unique apparent hosts
per launch, and the cumulative unique count (paper Fig. 12).  The scalar
reference builds a Python set per launch and unions it into a campaign-wide
``seen`` set — O(instances) hash-set churn that dominates analysis time once
fingerprinting itself is cheap.

:class:`FootprintAccumulator` replaces the set algebra with an interning
table plus a NumPy seen-mask: each distinct fingerprint is assigned a dense
integer code once, a launch becomes an ``int64`` code array, and both
reductions (``len(footprint)`` and ``len(seen)``) are ``np.unique`` /
boolean-mask counts.  Outputs are pure counts, so they are independent of
``PYTHONHASHSEED`` and of fingerprint insertion order; the scalar set
reference lives in ``tests/oracles``, where the twin-world and Hypothesis
equivalence suites pin the two paths equal.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray


class FootprintAccumulator:
    """Cumulative-unique reduction over a stream of launch footprints.

    Equivalent to::

        seen = set()
        footprint = set(launch)
        seen |= footprint
        per_launch, cumulative = len(footprint), len(seen)

    but with the per-launch reduction done on interned ``int64`` codes and
    the campaign-wide state a boolean seen-mask that grows geometrically
    with *distinct fingerprints observed* — O(occupied hosts), never
    O(instances fingerprinted).
    """

    def __init__(self) -> None:
        self._codes: dict[Hashable, int] = {}
        self._seen: NDArray[np.bool_] = np.zeros(256, dtype=bool)
        self._n_seen = 0

    @property
    def unique_count(self) -> int:
        """Distinct fingerprints observed so far."""
        return self._n_seen

    def _intern(self, fingerprints: Sequence[Hashable]) -> NDArray[np.int64]:
        """Map fingerprints to dense codes, assigning new ones in order."""
        codes = self._codes
        out = np.empty(len(fingerprints), dtype=np.int64)
        n = len(codes)
        for i, fp in enumerate(fingerprints):
            code = codes.get(fp)
            if code is None:
                code = n
                codes[fp] = code
                n += 1
            out[i] = code
        return out

    def add_launch(self, fingerprints: Iterable[Hashable]) -> tuple[int, int]:
        """Fold one launch in; returns ``(per_launch_unique, cumulative)``.

        The interning dict makes code assignment injective, so
        ``np.unique(codes).size == len(set(fingerprints))`` exactly, and
        marking codes in the seen-mask reproduces the set union count.
        """
        batch = list(fingerprints)
        if not batch:
            return 0, self._n_seen
        unique_codes = np.unique(self._intern(batch))
        top = int(unique_codes[-1])
        if top >= self._seen.size:
            grown = np.zeros(max(self._seen.size * 2, top + 1), dtype=bool)
            grown[: self._seen.size] = self._seen
            self._seen = grown
        newly = ~self._seen[unique_codes]
        self._seen[unique_codes[newly]] = True
        self._n_seen += int(newly.sum())
        return int(unique_codes.size), self._n_seen


"""Attacker-side aggregation for census campaigns.

A census reduces its launches to two curves: unique apparent hosts per
launch, and the cumulative unique count (paper Fig. 12).  A
fingerprinting batch already holds its distinct fingerprints
(:class:`~repro.core.fingerprint.FingerprintColumn`), so the reduction
hashes those only: O(occupied hosts) per launch, never O(instances).
"""

from __future__ import annotations

from typing import Hashable, Iterable


class FootprintAccumulator:
    """Cumulative-unique reduction over a stream of launch footprints.

    Equivalent to::

        seen = set()
        footprint = set(launch)
        seen |= footprint
        per_launch, cumulative = len(footprint), len(seen)
    """

    def __init__(self) -> None:
        self._seen: set[Hashable] = set()

    @property
    def unique_count(self) -> int:
        """Distinct fingerprints observed so far."""
        return len(self._seen)

    def add_launch(self, fingerprints: Iterable[Hashable]) -> tuple[int, int]:
        """Fold one launch in; returns ``(per_launch_unique, cumulative)``.

        Pass a launch's distinct fingerprints (a fingerprint column's
        ``fingerprints``) so only those are hashed; repeats are allowed
        and counted once.
        """
        footprint = set(fingerprints)
        self._seen |= footprint
        return len(footprint), len(self._seen)

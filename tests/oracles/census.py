"""Set-algebra census reduction (reference for ``FootprintAccumulator``)."""

from __future__ import annotations

from typing import Hashable, Iterable


def census_reduce_scalar(
    launches: Iterable[Iterable[Hashable]],
) -> tuple[list[int], list[int]]:
    """The historical set-based census reduction.

    Returns ``(per_launch, cumulative_unique)`` for a sequence of launch
    footprints.  The equivalence suites pin
    :class:`~repro.analysis.aggregation.FootprintAccumulator` to this
    byte-for-byte.
    """
    seen: set[Hashable] = set()
    per_launch: list[int] = []
    cumulative: list[int] = []
    for launch in launches:
        footprint = set(launch)
        seen |= footprint
        per_launch.append(len(footprint))
        cumulative.append(len(seen))
    return per_launch, cumulative

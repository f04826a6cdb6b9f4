"""Shared hardware random-number-generator contention resource.

The paper's co-location verification uses a covert channel built on
contention for the host's hardware RNG (RDRAND), chosen because the RNG is
rarely used by background workloads so the false-contention rate is under 1%
(paper §4.4.1).

The model: every container instance that currently *pressures* the RNG
registers itself here.  A pressuring instance observing the channel sees a
contention level equal to the total number of co-located pressurers
(including itself), occasionally perturbed by background activity.

The same contention model backs every registered covert-channel kind (see
:mod:`repro.hardware.channels`): the kinds differ in their background/drop
rates and, for coarse channels like LLC occupancy, an optional observation
``saturation`` — never in draw order.

Draw-order contract
-------------------
:func:`window_hits` consumes each observer's ``numpy`` generator exactly
as a loop of scalar observations would, one per round.  That scalar side
is a test oracle: ``observe`` in ``tests/oracles/ctest.py``, which the
per-round CTest loop there draws through each row's stream, and the two
stay byte-identical (the same guarantee the columnar fleet store gives
for placement).  Per observation by one instance:

1. one uniform draw **per co-located other pressurer**, in one block; a
   draw ``>= drop_rate`` means that pressurer's contribution is seen;
2. then exactly **one** uniform draw for background contention, counted
   when it is ``< background_rate``.

So one observation advances the observer's generator by ``others + 1``
draws, where ``others`` is the number of *other* pressurers registered at
the moment of the observation.  Because every sandbox owns a private
generator, interleaving observations of different instances never changes
any stream — only the per-round pressurer counts couple co-located
observers, and those are plain set sizes, not randomness.  The contract is
pinned by ``tests/unit/test_hardware_rng_resource.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Most uniforms one :func:`window_hits` pass holds at once.  Passes cut
#: only at host boundaries, so a host whose window alone needs more runs
#: as a pass of its own; the cap bounds the engine's working memory by a
#: constant instead of by the batch size.
PASS_DRAWS = 8192

#: A threshold no level reaches.
_NEVER = np.iinfo(np.int64).max


class ContentionResource:
    """Per-host shared-hardware contention domain.

    Parameters
    ----------
    background_rate:
        Per-observation probability that unrelated host activity adds one
        unit of contention (paper: "less than 1%" for the RNG).
    drop_rate:
        Per-observation probability that scheduling noise makes a pressurer
        miss the contention it should have seen (its own unit still counts).
    saturation:
        Optional upper bound on the *observed* contention level: a coarse
        channel (e.g. LLC occupancy) cannot resolve more than this many
        concurrent pressurers, so levels clamp to it.  The clamp is applied
        after all draws, so ``None`` (no clamp, the default) and any
        saturation consume byte-identical randomness.
    """

    def __init__(
        self,
        background_rate: float = 0.005,
        drop_rate: float = 0.02,
        saturation: int | None = None,
    ) -> None:
        if not 0.0 <= background_rate < 1.0:
            raise ValueError(f"background_rate out of range: {background_rate!r}")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate out of range: {drop_rate!r}")
        if saturation is not None and saturation < 1:
            raise ValueError(f"saturation must be >= 1, got {saturation!r}")
        self.background_rate = background_rate
        self.drop_rate = drop_rate
        self.saturation = saturation
        self._pressurers: set[str] = set()

    def start_pressure(self, instance_id: str) -> None:
        """Register ``instance_id`` as actively hammering the RNG."""
        self._pressurers.add(instance_id)

    def stop_pressure(self, instance_id: str) -> None:
        """Unregister ``instance_id`` (no-op if it was not pressuring)."""
        self._pressurers.discard(instance_id)

    @property
    def pressurer_count(self) -> int:
        """Number of instances currently pressuring this host's RNG."""
        return len(self._pressurers)

    def current_pressurers(self) -> frozenset[str]:
        """Ids of the instances currently pressuring (provider telemetry)."""
        return frozenset(self._pressurers)


def window_hits(
    observers: Sequence[tuple[ContentionResource, str, np.random.Generator]],
    n_rounds: int,
    thresholds: Sequence[int],
    stop_rounds: Sequence[int | None] | None = None,
) -> np.ndarray:
    """Contention-hit counts of one CTest window over a whole batch.

    Simulates, for every observer, ``n_rounds`` successive scalar
    observations of its host's resource (the module-level draw-order
    contract) and counts the rounds whose level reaches the observer's
    threshold.  The observers of every host are handled together: each
    observer's whole window is drawn by one ``rng.random(out=...)`` into a
    shared buffer, and seen-others, background and hits are counted for
    all of them in one segmented array pass (several passes of at most
    :data:`PASS_DRAWS` draws for a large batch).

    Parameters
    ----------
    observers:
        ``(resource, instance_id, rng)`` triples in *schedule order*: the
        order in which the scalar engine visits observers within each
        round.  Only the relative order of observers sharing a resource
        matters.  Every observer must currently be registered as
        pressuring its resource.  ``rng`` is the observer's sandbox
        stream: a ``Generator``, or anything whose ``random(out=...)``
        fills a float64 array as ``Generator.random`` would (a row's
        :class:`~repro.fleet.probe.RowStream`).
    n_rounds:
        Number of observation rounds in the test window.
    thresholds:
        Per-observer contention threshold: a round is a hit when the
        observed (saturation-clamped) level is at least this.
    stop_rounds:
        Optional per-observer death round: observer ``i`` observes rounds
        ``[0, stop_rounds[i])`` and stops pressuring *at its own slot* in
        round ``stop_rounds[i]``.  Within that round, co-residents
        scheduled earlier still see its contribution and those scheduled
        later do not — the semantics of a scalar engine that visits
        observers in schedule order and removes the dying pressurer when
        it reaches it.  ``None`` entries (or no ``stop_rounds`` at all)
        mean the observer survives the whole window; rounds past the
        window clamp to it.

    Returns
    -------
    One ``int64`` hit count per observer, in input order.  Pressurers
    registered on a resource that are *not* observers count as a constant
    external contribution for every round, as in the scalar engine (which
    never unregisters them mid-window).  The per-observer draw streams are
    byte-identical to the scalar path (the module-level draw-order
    contract).  No pressurer set is mutated: deaths only truncate
    observations and pressure contributions, and the caller unregisters
    dead observers afterwards, as the scalar engine does at the death
    slot.
    """
    n_observers = len(observers)
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    if len(thresholds) != n_observers:
        raise ValueError(
            f"got {len(thresholds)} thresholds for {n_observers} observers"
        )
    if stop_rounds is None:
        stops = [n_rounds] * n_observers
    else:
        if len(stop_rounds) != n_observers:
            raise ValueError(
                f"got {len(stop_rounds)} stop_rounds for {n_observers} observers"
            )
        stops = [n_rounds if s is None else min(s, n_rounds) for s in stop_rounds]
        if any(s < 0 for s in stops):
            raise ValueError(f"stop_rounds must be >= 0, got {list(stop_rounds)}")
    if len({instance_id for _resource, instance_id, _rng in observers}) != n_observers:
        raise ValueError("window_hits observers must be distinct instances")
    if not observers:
        return np.zeros(0, dtype=np.int64)

    # Group by resource (one per host and kind): hosts in first-appearance
    # order, each host's observers in schedule order.  From here on every
    # per-observer array is in this host-major order.
    members_of: dict[int, list[int]] = {}
    hosts: list[ContentionResource] = []
    for index, (resource, instance_id, _rng) in enumerate(observers):
        if instance_id not in resource._pressurers:
            raise ValueError(
                f"instance {instance_id!r} must pressure the RNG before observing it"
            )
        members = members_of.get(id(resource))
        if members is None:
            members_of[id(resource)] = members = []
            hosts.append(resource)
        members.append(index)
    groups = list(members_of.values())
    order = [index for members in groups for index in members]
    sizes = [len(members) for members in groups]
    pressure = [len(resource._pressurers) for resource in hosts]

    # Cut passes at host boundaries.  ``others + 1`` never exceeds the
    # host's pressurer count, so that times the observed rounds bounds a
    # host's draws without working out its deaths first.
    cuts = [0]
    first = bound = 0
    for host, members in enumerate(groups):
        draws = pressure[host] * sum(stops[index] for index in members)
        if first > cuts[-1] and bound + draws > PASS_DRAWS:
            cuts.append(first)
            bound = 0
        bound += draws
        first += len(members)
    cuts.append(n_observers)

    host_of = np.repeat(np.arange(len(hosts)), sizes)
    stop = np.array([stops[index] for index in order], dtype=np.int64)
    # min(level, saturation) >= m  <=>  level >= m and saturation >= m, so
    # a threshold above its host's saturation is never hit.
    saturation = np.array(
        [_NEVER if resource.saturation is None else resource.saturation for resource in hosts]
    )
    threshold = np.array([thresholds[index] for index in order], dtype=np.int64)
    threshold[threshold > saturation[host_of]] = _NEVER
    window = _Window(
        rngs=[observers[index][2] for index in order],
        stop=stop,
        threshold=threshold,
        pressure=np.array(pressure, dtype=np.int64)[host_of],
        host_end=np.cumsum(sizes)[host_of],
        size=np.array(sizes)[host_of],
        drop=np.array([resource.drop_rate for resource in hosts])[host_of],
        background=np.array([resource.background_rate for resource in hosts])[host_of],
        rounds=np.arange(n_rounds),
    )
    sorted_hits = np.empty(n_observers, dtype=np.int64)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sorted_hits[lo:hi] = window.hits(lo, hi)
    hits = np.empty(n_observers, dtype=np.int64)
    hits[order] = sorted_hits
    return hits


@dataclass
class _Window:
    """Per-observer columns of one :func:`window_hits` call, host-major.

    ``pressure``, ``host_end``, ``size``, ``drop`` and ``background`` are
    the observer's host's pressurer count, end position, observer count
    and rates.
    """

    rngs: list[np.random.Generator]
    stop: np.ndarray
    threshold: np.ndarray
    pressure: np.ndarray
    host_end: np.ndarray
    size: np.ndarray
    drop: np.ndarray
    background: np.ndarray
    rounds: np.ndarray

    def hits(self, lo: int, hi: int) -> np.ndarray:
        """Hit counts of observers ``[lo, hi)``, whole hosts, in one pass."""
        stop = self.stop[lo:hi]
        n_rounds = self.rounds.size
        # counts[j, r] = others + 1 = the draws observer j makes in round
        # r: every pressurer on its host while nobody dies.  A death at
        # round s removes one pressurer for its co-residents from round
        # s + 1 on, and in round s itself for those scheduled after it
        # (earlier ones still saw it).
        pressure = self.pressure[lo:hi]
        dying = np.flatnonzero(stop < n_rounds)
        if dying.size:
            counts = np.repeat(pressure[:, None], n_rounds, axis=1)
            for slot in dying.tolist():
                end = int(self.host_end[lo + slot]) - lo
                start = end - int(self.size[lo + slot])
                death = int(stop[slot])
                counts[start:end, death + 1 :] -= 1
                counts[slot + 1 : end, death] -= 1
            segments = counts[stop[:, None] > self.rounds]  # observer-major
        else:
            segments = np.repeat(pressure, n_rounds)

        # Every observer's window is one slice of one buffer: a segment per
        # observed round, ``others`` drop draws then the background draw.
        segment_end = np.zeros(segments.size + 1, dtype=np.int64)
        np.cumsum(segments, out=segment_end[1:])
        round_end = np.zeros(stop.size + 1, dtype=np.int64)
        np.cumsum(stop, out=round_end[1:])
        draw_end = segment_end[round_end]
        buffer = np.empty(int(draw_end[-1]))
        bounds = draw_end.tolist()
        for slot, rng in enumerate(self.rngs[lo:hi]):
            rng.random(out=buffer[bounds[slot] : bounds[slot + 1]])

        # A draw at or above the drop rate sees its pressurer; the last
        # draw of a segment is background, counted below its rate.
        last = segment_end[1:] - 1
        seen = buffer >= np.repeat(self.drop[lo:hi], np.diff(draw_end))
        level = np.add.reduceat(seen, segment_end[:-1], dtype=np.int64)
        level -= seen[last]
        level += 1
        level += buffer[last] < np.repeat(self.background[lo:hi], stop)
        hit_end = np.zeros(level.size + 1, dtype=np.int64)
        np.cumsum(level >= np.repeat(self.threshold[lo:hi], stop), out=hit_end[1:])
        hit_end = hit_end[round_end]
        return hit_end[1:] - hit_end[:-1]


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
Both the scalar :meth:`ContentionResource.observe` path and the batched
:meth:`ContentionResource.observe_rounds` engine consume each observer's
``numpy`` generator in exactly the same order, which is what keeps the two
execution strategies byte-identical (the same guarantee the columnar fleet
store gives for placement).  Per observation by one instance:

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

from typing import Sequence

import numpy as np


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

    def observe(self, instance_id: str, rng: np.random.Generator) -> int:
        """Return the contention level seen by one pressuring instance.

        The observation is the number of co-located pressurers (including
        the observer itself, which must be pressuring to measure), minus
        occasional scheduling drops of *other* pressurers' contributions,
        plus occasional background contention.

        The draws follow the module-level draw-order contract (``others``
        drop draws, then one background draw), so a sequence of scalar
        observations is stream-identical to one :meth:`observe_rounds`
        call covering the same rounds.
        """
        if instance_id not in self._pressurers:
            raise ValueError(
                f"instance {instance_id!r} must pressure the RNG before observing it"
            )
        others = len(self._pressurers) - 1
        seen_others = sum(1 for _ in range(others) if rng.random() >= self.drop_rate)
        background = 1 if rng.random() < self.background_rate else 0
        level = 1 + seen_others + background
        if self.saturation is not None:
            level = min(level, self.saturation)
        return level

    def observe_rounds(
        self,
        observers: Sequence[tuple[str, np.random.Generator]],
        n_rounds: int,
        stop_rounds: Sequence[int | None] | None = None,
    ) -> list[np.ndarray]:
        """Batched multi-round observation: one call per host per test window.

        Simulates, for every observer, ``n_rounds`` successive scalar
        :meth:`observe` calls — but draws each observer's uniforms as one
        vector and counts seen-others/background hits with array ops, so
        the cost is O(hosts) Python work instead of O(rounds x instances).

        Parameters
        ----------
        observers:
            ``(instance_id, rng)`` pairs in *schedule order*: the order in
            which the equivalent scalar engine would visit the observers
            within each round.  Every observer must currently be
            registered as pressuring.
        n_rounds:
            Number of observation rounds in the test window.
        stop_rounds:
            Optional per-observer death round: observer ``i`` observes
            rounds ``[0, stop_rounds[i])`` and stops pressuring *at its
            own slot* in round ``stop_rounds[i]``.  Within that round,
            observers scheduled earlier still see its contribution and
            observers scheduled later do not — exactly the semantics of a
            scalar engine that visits observers in schedule order and
            removes the dying pressurer when it reaches it.  ``None``
            entries (or no ``stop_rounds`` at all) mean the observer
            survives the whole window.

        Returns
        -------
        One ``int64`` array of contention levels per observer, in input
        order; observer ``i``'s array has ``stop_rounds[i]`` entries (or
        ``n_rounds`` if it survives).  Pressurers registered on this host
        that are *not* observers count as a constant external
        contribution for every round, mirroring the scalar engine (which
        never unregisters them mid-window).

        The per-observer draw streams are byte-identical to the scalar
        path (see the module-level draw-order contract); this method never
        mutates the pressurer set — deaths only truncate observations and
        pressure contributions, and the caller unregisters dead observers
        afterwards, as the scalar engine does at the death slot.
        """
        if n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
        ids = [instance_id for instance_id, _rng in observers]
        if len(set(ids)) != len(ids):
            raise ValueError("observe_rounds observers must be distinct instances")
        for instance_id in ids:
            if instance_id not in self._pressurers:
                raise ValueError(
                    f"instance {instance_id!r} must pressure the RNG "
                    f"before observing it"
                )
        if stop_rounds is None:
            stops = [n_rounds] * len(observers)
        else:
            if len(stop_rounds) != len(observers):
                raise ValueError(
                    f"got {len(stop_rounds)} stop_rounds for "
                    f"{len(observers)} observers"
                )
            stops = [n_rounds if s is None else min(s, n_rounds) for s in stop_rounds]
            if any(s < 0 for s in stops):
                raise ValueError(f"stop_rounds must be >= 0, got {list(stop_rounds)}")

        external = len(self._pressurers) - len(observers)
        rounds = np.arange(n_rounds)
        stop_arr = np.asarray(stops, dtype=np.int64).reshape(-1, 1)
        # alive[j, r]: observer j still pressures *throughout* round r;
        # dying[j, r]: observer j stops at its own slot within round r, so
        # only observers scheduled before it still see it that round.
        alive = stop_arr > rounds
        dying = stop_arr == rounds
        total_alive = alive.sum(axis=0)
        dying_after = dying.sum(axis=0) - np.cumsum(dying, axis=0)
        others = external + (total_alive - alive) + dying_after

        levels: list[np.ndarray] = []
        for index, (_instance_id, rng) in enumerate(observers):
            stop = stops[index]
            counts = others[index, :stop] + 1
            draws = rng.random(int(counts.sum()))
            ends = np.cumsum(counts)
            starts = ends - counts
            seen_prefix = np.concatenate(
                ([0], np.cumsum(draws >= self.drop_rate))
            )
            seen_others = seen_prefix[ends - 1] - seen_prefix[starts]
            background = draws[ends - 1] < self.background_rate
            stream = (1 + seen_others + background).astype(np.int64, copy=False)
            if self.saturation is not None:
                stream = np.minimum(stream, self.saturation)
            levels.append(stream)
        return levels

"""Per-round CTest loop (reference for the batch-wide ``window_hits`` engine).

One probe round-trip per started instance per round, visiting instances
in flat order within each round, each in its sandbox; the sleeper sleeps
in its sandbox too, so the row streams the batched engine draws from are
never used directly.  Each round is one scalar :func:`observe`, the
draw-order contract of :mod:`repro.hardware.rng_resource` written out
one observation at a time.
:func:`loop_reference` derives, from any registered channel class, a
subclass that runs its windows this way, so every kind's batched engine
is pinned against the same loop.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.core.covert import RngCovertChannel, _Observer
from repro.errors import InstanceGoneError
from repro.hardware.rng_resource import ContentionResource

from tests.oracles.sandbox import EagerSandbox


def observe(resource: ContentionResource, instance_id: str, rng: np.random.Generator) -> int:
    """The contention level one pressuring instance sees in one round.

    The number of co-located pressurers (the observer included), minus
    occasional scheduling drops of *other* pressurers' contributions, plus
    occasional background contention, clamped to the resource's
    saturation.  Draws ``others`` drop uniforms, then one background
    uniform.
    """
    if instance_id not in resource._pressurers:
        raise ValueError(
            f"instance {instance_id!r} must pressure the RNG before observing it"
        )
    others = len(resource._pressurers) - 1
    seen_others = sum(1 for _ in range(others) if rng.random() >= resource.drop_rate)
    background = 1 if rng.random() < resource.background_rate else 0
    level = 1 + seen_others + background
    if resource.saturation is not None:
        level = min(level, resource.saturation)
    return level


def observe_contention(sandbox, kind: str) -> int:
    """One :func:`observe` by a sandbox pressuring channel ``kind``.

    A row-view sandbox draws through its row's stream, so the words are
    counted as the batched engine counts them; an eager sandbox draws from
    its own generator.
    """
    sample = partial(observe, sandbox._host.channel_resource(kind), sandbox.sandbox_id)
    if isinstance(sandbox, EagerSandbox):
        return sample(sandbox._rng)
    return sandbox._stream.draw(sample)


class LoopWindow:
    """Mixin replacing the channel's window method with the round loop."""

    def _observers(self, pressured) -> list[_Observer]:
        return [
            _Observer(handle, resource, handle._instance.sandbox)
            for handle, resource in pressured
        ]

    def _observe_window(
        self,
        started: Sequence[_Observer],
        dead: set[str],
        death_round: dict[str, int],
        threshold_of: dict[str, int],
    ) -> dict[str, int]:
        kind = self.kind
        flat = [handle for handle, _resource, _stream in started]
        hits = {handle.instance_id: 0 for handle in flat}
        for round_index in range(self.total_rounds):
            for handle in flat:
                instance_id = handle.instance_id
                if instance_id in dead:
                    continue
                if death_round.get(instance_id) == round_index:
                    dead.add(instance_id)
                    try:
                        handle.run(lambda sandbox: sandbox.stop_channel_pressure(kind))
                    except InstanceGoneError:
                        pass
                    continue
                try:
                    level = handle.run(lambda sandbox: observe_contention(sandbox, kind))
                except InstanceGoneError:
                    dead.add(instance_id)
                    continue
                if level >= threshold_of[instance_id]:
                    hits[instance_id] += 1
        return hits


def loop_reference(channel_cls: type[RngCovertChannel]) -> type[RngCovertChannel]:
    """``channel_cls`` with its test windows run by the per-round loop."""
    return type(f"Loop{channel_cls.__name__}", (LoopWindow, channel_cls), {})


#: The paper's RNG channel on the per-round loop.
LoopRngCovertChannel = loop_reference(RngCovertChannel)

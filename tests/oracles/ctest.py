"""Per-round CTest loop (reference for the batch-wide ``window_hits`` engine).

One probe round-trip per started instance per round, visiting instances
in flat order within each round, each in its sandbox (booting it); the
streams the batched engine draws from are ignored.
:func:`loop_reference` derives, from any registered channel class, a
subclass that runs its windows this way, so every kind's batched engine
is pinned against the same loop.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.covert import RngCovertChannel, _Observer
from repro.errors import InstanceGoneError


class LoopWindow:
    """Mixin replacing the channel's window method with the round loop."""

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
                    level = handle.run(
                        lambda sandbox: sandbox.observe_channel_contention(kind)
                    )
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

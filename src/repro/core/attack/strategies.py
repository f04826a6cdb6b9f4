"""Instance launching strategies (paper §5.2).

*Naive* launching deploys several cold services and floods them with
connections once.  Because all services of one account share the account's
base hosts, the footprint stays confined there and co-location with a
different account's victim is usually zero.

*Optimized* launching primes each service into a high-demand state by
re-launching it at a ~10-minute interval: every launch after the first finds
the service hot and spills newly created instances onto helper hosts,
spreading the attacker across a large fraction of the datacenter
(Observations 5-6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.cloud.api import FaaSClient, HandleColumn, InstanceHandle
from repro.cloud.services import SMALL, ContainerSize, ServiceConfig
from repro.core.fingerprint import (
    FingerprintColumn,
    fingerprint_gen1_instances,
    fingerprint_gen2_instances,
)


@dataclass
class LaunchOutcome:
    """What a launching strategy achieved.

    Attributes
    ----------
    service_names:
        The attacker services deployed.
    connected:
        Per launch kept connected: its instance handles, as a column.
    tagged:
        Per launch kept connected: its fingerprints, as a column.
    launch_footprints:
        Per (round, service) apparent-host footprint: the set of distinct
        fingerprints observed in that launch.  Lets experiments replay the
        paper's per-launch plots.
    cost_usd:
        Billing delta incurred by the strategy.
    """

    service_names: list[str]
    connected: list[HandleColumn] = field(default_factory=list)
    tagged: list[FingerprintColumn] = field(default_factory=list)
    launch_footprints: list[set] = field(default_factory=list)
    cost_usd: float = 0.0

    @property
    def handles(self) -> list[InstanceHandle]:
        """Instance handles still connected after the final launch."""
        return [handle for column in self.connected for handle in column]

    @property
    def fingerprints(self) -> list[tuple[InstanceHandle, object]]:
        """``(handle, fingerprint)`` pairs for the final instances."""
        return [pair for column in self.tagged for pair in column]

    @property
    def apparent_hosts(self) -> set:
        """Distinct fingerprints among the final connected instances."""
        return {fp for column in self.tagged for fp in column.fingerprints}


def _fingerprint_batch(
    handles: HandleColumn, generation: str, p_boot: float
) -> FingerprintColumn:
    if generation == "gen2":
        return fingerprint_gen2_instances(handles)
    return fingerprint_gen1_instances(handles, p_boot=p_boot)


def naive_launch(
    client: FaaSClient,
    n_services: int = 6,
    instances_per_service: int = 800,
    size: ContainerSize = SMALL,
    generation: str = "gen1",
    p_boot: float = 1.0,
    service_prefix: str = "naive",
) -> LaunchOutcome:
    """Strategy 1: launch many instances from cold services, once.

    Represents an attacker with no insight into the placement policy.
    """
    cost0 = client.cost_usd
    names = [
        client.deploy(
            ServiceConfig(
                name=f"{service_prefix}-{i}",
                size=size,
                generation=generation,
                max_instances=max(100, instances_per_service),
            )
        )
        for i in range(n_services)
    ]
    outcome = LaunchOutcome(service_names=names)
    for name in names:
        handles = client.connect(name, instances_per_service)
        tagged = _fingerprint_batch(handles, generation, p_boot)
        outcome.connected.append(handles)
        outcome.tagged.append(tagged)
        outcome.launch_footprints.append(set(tagged.fingerprints))
    outcome.cost_usd = client.cost_usd - cost0
    return outcome


def optimized_launch(
    client: FaaSClient,
    n_services: int = 6,
    launches: int = 6,
    instances_per_service: int = 800,
    interval_s: float = 10 * units.MINUTE,
    size: ContainerSize = SMALL,
    generation: str = "gen1",
    p_boot: float = 1.0,
    probe_hold_s: float = 2.0,
    service_prefix: str = "primed",
) -> LaunchOutcome:
    """Strategy 2: prime services hot via repeated interval launches.

    Every service is launched ``launches`` times at ``interval_s``; after
    each launch except the last, the attacker disconnects, letting some
    instances idle out so the next launch must create replacements — the
    mechanism that recruits helper hosts.  After the final launch the
    instances stay connected so a victim can be engaged.
    """
    cost0 = client.cost_usd
    names = [
        client.deploy(
            ServiceConfig(
                name=f"{service_prefix}-{i}",
                size=size,
                generation=generation,
                max_instances=max(100, instances_per_service),
            )
        )
        for i in range(n_services)
    ]
    outcome = LaunchOutcome(service_names=names)
    for launch_round in range(launches):
        round_start = client.now()
        final_round = launch_round == launches - 1
        for name in names:
            handles = client.connect(name, instances_per_service)
            tagged = _fingerprint_batch(handles, generation, p_boot)
            outcome.launch_footprints.append(set(tagged.fingerprints))
            # Keep the instances busy for the probe work, then idle them
            # out immediately — active time is what the attack pays for.
            client.wait(probe_hold_s)
            if final_round:
                outcome.connected.append(handles)
                outcome.tagged.append(tagged)
            else:
                client.disconnect(name)
        if not final_round:
            elapsed = client.now() - round_start
            client.wait(max(0.0, interval_s - elapsed))
    outcome.cost_usd = client.cost_usd - cost0
    return outcome

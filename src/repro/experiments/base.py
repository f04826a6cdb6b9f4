"""Shared experiment infrastructure: one simulated region + three accounts.

Every experiment builds a fresh :class:`SimulationEnv` so runs are
independent and reproducible from their seed.  The environment mirrors the
paper's setup (§5): Account 1 is the attacker, Accounts 2 and 3 are
victims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.accounts import Account
from repro.cloud.api import FaaSClient
from repro.cloud.datacenter import DataCenter
from repro.cloud.orchestrator import Orchestrator
from repro.cloud.platform import (
    PlatformProfile,
    current_platform,
    platform_profile,
)
from repro.cloud.topology import RegionProfile, region_profile
from repro.cloud.traffic import BackgroundDriver, TenantPopulation, TrafficConfig
from repro.faults import (
    DEFAULT_LAUNCH_RETRY,
    FaultPlan,
    RetryPolicy,
    current_fault_plan,
)
from repro.runner.worldcache import (
    EnvSpec,
    current_later_uses,
    current_world_cache,
)
from repro.sandbox.base import TscPolicy
from repro.simtime.clock import SimClock
from repro.telemetry import current_telemetry

#: The accounts used throughout the paper's evaluation.
ATTACKER_ACCOUNT = "account-1"
VICTIM_ACCOUNTS = ("account-2", "account-3")


@dataclass
class SimulationEnv:
    """One simulated region with the paper's three evaluation accounts."""

    clock: SimClock
    datacenter: DataCenter
    orchestrator: Orchestrator
    clients: dict[str, FaaSClient] = field(default_factory=dict)
    #: Live background-tenant traffic, or ``None`` for a quiet region.
    background: BackgroundDriver | None = None

    @property
    def attacker(self) -> FaaSClient:
        """Client for the attacker account (Account 1)."""
        return self.clients[ATTACKER_ACCOUNT]

    def victim(self, account_id: str = "account-2") -> FaaSClient:
        """Client for a victim account."""
        return self.clients[account_id]

    @property
    def region(self) -> str:
        return self.datacenter.profile.name


def host_coverage(
    env: SimulationEnv, attacker_handles, victim_handles
) -> tuple[float, int]:
    """Oracle-scored co-location coverage, as index-mask math.

    Resolves every instance's true host to its fleet index and intersects
    a boolean attacker-presence mask with the victim index array — no
    per-campaign host-id set churn.  Returns ``(coverage, attacker_hosts)``
    where coverage is the fraction of *live* victim instances landing on a
    host that also runs a live attacker instance.

    Dead-instance semantics (both sides filtered identically): terminated
    attacker instances no longer pressure anything, so they contribute no
    host to the attacker mask; terminated victim instances are no longer
    co-locatable targets, so they leave the denominator instead of
    counting as misses (or raising on a reaped ``true_host_of`` lookup).
    Empty inputs — either side — yield zero coverage, never an error.
    """
    fleet = env.datacenter.fleet
    orch = env.orchestrator
    attacker_idx = fleet.indices_of(
        orch.true_host_of(handle.instance_id)
        for handle in attacker_handles
        if handle.alive
    )
    attacker_mask = fleet.mask_for_indices(attacker_idx)
    victim_idx = fleet.indices_of(
        orch.true_host_of(handle.instance_id)
        for handle in victim_handles
        if handle.alive
    )
    if victim_idx.size == 0:
        return 0.0, int(attacker_mask.sum())
    return float(attacker_mask[victim_idx].mean()), int(attacker_mask.sum())


def default_env(
    region: str = "us-east1",
    seed: int = 0,
    tsc_policy: TscPolicy = TscPolicy.NATIVE,
    profile: RegionProfile | None = None,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    background: TrafficConfig | None = None,
    platform: PlatformProfile | str | None = None,
) -> SimulationEnv:
    """Build (or warm-fork) a simulated region with the evaluation accounts.

    Parameters
    ----------
    region:
        Region profile name (ignored when ``profile`` is given).
    seed:
        Master seed; different seeds model different measurement days.
    tsc_policy:
        Host TSC exposure (``EMULATED`` enables the §6 mitigation).
    profile:
        Explicit profile override (used by scaled-down tests).
    fault_plan:
        Deterministic platform-fault schedule wired into the orchestrator
        (launch errors, slow launches).  Defaults to the ambient plan
        (:func:`~repro.faults.current_fault_plan`), so experiment cells
        running under ``--faults`` inherit it without extra plumbing.
    retry_policy:
        Launch-retry discipline for the orchestrator and the clients.
        When faults are active and no policy is given, clients get the
        default launch-retry policy so one exhausted platform retry
        budget doesn't kill a whole campaign.
    background:
        Optional :class:`~repro.cloud.traffic.TrafficConfig`: the region
        comes up *live*, with that tenant population already deployed and
        autoscaling in the background of whatever the experiment does.
        ``None`` (the default) keeps the historical quiet region —
        byte-identical traces, guaranteed.
    platform:
        Optional :class:`~repro.cloud.platform.PlatformProfile` (or its
        registry name) giving the region a non-Google orchestrator
        personality.  ``None`` resolves the ambient profile
        (:func:`~repro.cloud.platform.current_platform`) — set by the
        runner under ``--platform`` — and falls back to the neutral
        baseline, which builds a byte-identical environment.

    When an ambient :class:`~repro.runner.worldcache.WorldCache` is
    active (the runner arms one around cells that declare an
    :class:`~repro.runner.worldcache.EnvSpec`), the fully built world —
    including the warmed background population — is checkpointed on
    first construction when a later cell of the run declares the same
    world, and those later calls *fork* the checkpoint instead of
    rebuilding; the last of them releases it.  Forked and
    fresh worlds are byte-identical (state, traces, and every subsequent
    RNG draw); see ``docs/DESIGN.md`` ("warm-world contract").  Worlds
    shaped by an enabled fault plan are never forked: their injection
    counters accumulate on the ambient plan object, which a restored
    copy would detach from.
    """
    if isinstance(platform, str):
        platform = platform_profile(platform)
    if platform is None:
        platform = current_platform()
    if fault_plan is None:
        fault_plan = current_fault_plan()

    cache = current_world_cache()
    if cache is not None:
        spec = EnvSpec(
            region=region,
            seed=seed,
            tsc_policy=tsc_policy.value,
            profile=profile,
            background=background,
            platform=platform,
            fault_spec=fault_plan.spec if fault_plan is not None else None,
            retry_policy=retry_policy,
        )
        if spec.forkable:
            return cache.build_or_fork(
                spec,
                lambda: _build_env(
                    region, seed, tsc_policy, profile, fault_plan,
                    retry_policy, background, platform,
                ),
                later_uses=current_later_uses(),
            )
    return _build_env(
        region, seed, tsc_policy, profile, fault_plan,
        retry_policy, background, platform,
    )


def _build_env(
    region: str,
    seed: int,
    tsc_policy: TscPolicy,
    profile: RegionProfile | None,
    fault_plan: FaultPlan | None,
    retry_policy: RetryPolicy | None,
    background: TrafficConfig | None,
    platform: PlatformProfile | None,
) -> SimulationEnv:
    """The fresh-construction path (fault plan and platform pre-resolved)."""
    clock = SimClock()
    current_telemetry().use_clock(clock)
    resolved = profile if profile is not None else region_profile(region)
    datacenter = DataCenter(resolved, clock, seed=seed, platform=platform)
    orchestrator = Orchestrator(
        datacenter,
        tsc_policy=tsc_policy,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    client_retry = retry_policy
    if client_retry is None and fault_plan is not None and fault_plan.enabled:
        client_retry = DEFAULT_LAUNCH_RETRY
    env = SimulationEnv(clock=clock, datacenter=datacenter, orchestrator=orchestrator)
    for account_id in (ATTACKER_ACCOUNT, *VICTIM_ACCOUNTS):
        orchestrator.register_account(Account(account_id))
        env.clients[account_id] = FaaSClient(
            orchestrator, account_id, retry_policy=client_retry
        )
    if background is not None:
        env.background = BackgroundDriver(
            orchestrator, TenantPopulation.generate(background)
        )
        env.background.start()
    return env

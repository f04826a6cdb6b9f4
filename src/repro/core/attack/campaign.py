"""End-to-end co-location campaigns: attacker strategy vs. victim service.

A campaign (paper §5.2) proceeds in three acts:

1. the attacker runs a launching strategy, ending with a fleet of connected
   instances;
2. the victim deploys a service and scales it to N instances (simulating
   the attacker invoking the victim's public interface);
3. co-location between the two fleets is verified through the covert
   channel, and the *victim instance coverage* — the fraction of victim
   instances sharing a host with at least one attacker instance — is
   computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.metrics import victim_instance_coverage
from repro.cloud.api import FaaSClient, InstanceHandle
from repro.cloud.services import SMALL, ContainerSize, ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances, fingerprint_gen2_instances
from repro.core.attack.strategies import LaunchOutcome
from repro.core.verification import ScalableVerifier, VerificationReport
from repro.telemetry import current_telemetry


@dataclass
class CoverageResult:
    """Outcome of one co-location campaign.

    Attributes
    ----------
    coverage:
        Victim instance coverage in [0, 1].
    attacker_hosts / victim_hosts:
        Verified host (cluster) counts occupied by each party.
    shared_hosts:
        Hosts holding instances of both parties.
    attacker_cost_usd:
        The attacker's bill for the strategy phase.
    verification:
        The verification report (test counts, wall time).
    """

    coverage: float
    attacker_hosts: int
    victim_hosts: int
    shared_hosts: int
    attacker_cost_usd: float
    verification: VerificationReport


class ColocationCampaign:
    """Drives one attacker-vs-victim co-location experiment.

    Parameters
    ----------
    attacker / victim:
        FaaS clients for the two accounts (same region).
    strategy:
        Callable running the attacker's launching strategy, e.g.
        ``lambda client: optimized_launch(client)``.
    generation:
        Execution environment for *both* parties ("gen1"/"gen2").
    p_boot:
        Gen 1 rounding precision used for fingerprint grouping.
    """

    def __init__(
        self,
        attacker: FaaSClient,
        victim: FaaSClient,
        strategy: Callable[[FaaSClient], LaunchOutcome],
        generation: str = "gen1",
        p_boot: float = 1.0,
    ) -> None:
        if attacker.region != victim.region:
            raise ValueError(
                f"attacker ({attacker.region}) and victim ({victim.region}) "
                "must target the same region"
            )
        self.attacker = attacker
        self.victim = victim
        self.strategy = strategy
        self.generation = generation
        self.p_boot = p_boot

    def run(
        self,
        n_victim_instances: int = 100,
        victim_size: ContainerSize = SMALL,
        victim_service_name: str = "victim",
        channel: RngCovertChannel | None = None,
    ) -> CoverageResult:
        """Execute the campaign and measure victim instance coverage."""
        telemetry = current_telemetry()
        with telemetry.span(
            "campaign", generation=self.generation, victims=n_victim_instances
        ) as campaign_span:
            with telemetry.span("campaign.attacker_launch") as span:
                outcome = self.strategy(self.attacker)
                span.set(
                    instances=len(outcome.handles),
                    cost_usd=round(outcome.cost_usd, 6),
                )

            with telemetry.span(
                "campaign.victim_scale", target=n_victim_instances
            ) as span:
                victim_service = self.victim.deploy(
                    ServiceConfig(
                        name=victim_service_name,
                        size=victim_size,
                        generation=self.generation,
                        max_instances=max(100, n_victim_instances),
                    )
                )
                victim_handles = self.victim.connect(
                    victim_service, n_victim_instances
                )
                span.set(connected=len(victim_handles))

            with telemetry.span("campaign.verification") as span:
                report = self._verify(outcome.handles, victim_handles, channel)
                span.set(clusters=len(report.clusters), tests=report.n_tests)

            cluster_of = report.cluster_index()
            attacker_ids = [h.instance_id for h in outcome.handles if h.alive]
            victim_ids = [h.instance_id for h in victim_handles]
            coverage = victim_instance_coverage(victim_ids, attacker_ids, cluster_of)

            attacker_clusters = {
                cluster_of[i] for i in attacker_ids if i in cluster_of
            }
            victim_clusters = {cluster_of[i] for i in victim_ids if i in cluster_of}
            campaign_span.set(
                coverage=round(coverage, 6),
                shared_hosts=len(attacker_clusters & victim_clusters),
            )
            telemetry.count("campaign.runs")
            telemetry.observe("campaign.coverage", coverage)
            return CoverageResult(
                coverage=coverage,
                attacker_hosts=len(attacker_clusters),
                victim_hosts=len(victim_clusters),
                shared_hosts=len(attacker_clusters & victim_clusters),
                attacker_cost_usd=outcome.cost_usd,
                verification=report,
            )

    def _verify(
        self,
        attacker_handles: list[InstanceHandle],
        victim_handles: list[InstanceHandle],
        channel: RngCovertChannel | None,
    ) -> VerificationReport:
        combined = [h for h in attacker_handles if h.alive] + list(victim_handles)
        with current_telemetry().span(
            "campaign.fingerprint",
            generation=self.generation,
            instances=len(combined),
        ) as span:
            if self.generation == "gen2":
                pairs = fingerprint_gen2_instances(combined)
            else:
                pairs = fingerprint_gen1_instances(combined, p_boot=self.p_boot)
            span.set(tagged=len(pairs))
        return ScalableVerifier(channel or RngCovertChannel()).verify(pairs)

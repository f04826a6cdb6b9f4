"""§6 defense evaluation: what each mitigation leaves of the attack.

The paper suggests TSC masking and co-location-resistant scheduling as
mitigations.  This extension runs the full optimized attack against an
undefended region, a TSC-emulating one, and the two scheduling defenses
(``RegionProfile.defense``), and reports what survives: victim coverage,
the hosts the attacker really holds, whether its fingerprints still
identify hosts, and the bill.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.analysis.metrics import pair_confusion
from repro.cloud.services import ServiceConfig
from repro.cloud.topology import REGION_PROFILES
from repro.core.attack.strategies import optimized_launch
from repro.experiments.base import default_env
from repro.experiments.report import ComparisonRow, format_comparison
from repro.experiments.spec import Band, FigureSpec
from repro.sandbox.base import TscPolicy

#: Row label -> (``RegionProfile.defense``, sandbox TSC policy).
MITIGATIONS = {
    "undefended": ("none", TscPolicy.NATIVE),
    "tsc_emulation": ("none", TscPolicy.EMULATED),
    "randomized_base": ("randomized_base", TscPolicy.NATIVE),
    "tenant_isolation": ("tenant_isolation", TscPolicy.NATIVE),
}


#: The region every mitigation is evaluated in.
REGION = "us-east1"


@dataclass(frozen=True)
class DefensesConfig:
    """Configuration for the defense matrix."""

    seed: int = 980


@dataclass(frozen=True)
class DefenseOutcome:
    """What the optimized attack achieved under one defense."""

    coverage: float
    true_hosts: int
    #: Do the attacker's fingerprints still identify hosts?
    fingerprint_fmi: float
    cost_usd: float


def attack_under(
    defense: str, tsc_policy: TscPolicy, config: DefensesConfig = DefensesConfig()
) -> DefenseOutcome:
    """Run the optimized attack and a victim under one defense."""
    profile = dataclasses.replace(REGION_PROFILES[REGION], defense=defense)
    env = default_env(profile=profile, seed=config.seed, tsc_policy=tsc_policy)
    outcome = optimized_launch(env.attacker)
    orch = env.orchestrator
    attacker_hosts = {
        orch.true_host_of(h.instance_id) for h in outcome.handles if h.alive
    }
    victim = env.victim("account-2")
    service = victim.deploy(ServiceConfig(name="victim"))
    handles = victim.connect(service, 100)
    hosts = [orch.true_host_of(h.instance_id) for h in handles]
    predicted = {h.instance_id: fp for h, fp in outcome.fingerprints if h.alive}
    truth = {iid: orch.true_host_of(iid) for iid in predicted}
    return DefenseOutcome(
        coverage=sum(1 for h in hosts if h in attacker_hosts) / len(hosts),
        true_hosts=len(attacker_hosts),
        fingerprint_fmi=pair_confusion(predicted, truth).fmi if predicted else 0.0,
        cost_usd=outcome.cost_usd,
    )


def run(config: DefensesConfig = DefensesConfig()) -> dict[str, DefenseOutcome]:
    """The attack under every mitigation in :data:`MITIGATIONS`."""
    return {
        label: attack_under(defense, policy, config)
        for label, (defense, policy) in MITIGATIONS.items()
    }


def _render(results: dict[str, DefenseOutcome], config: DefensesConfig) -> str:
    return format_comparison(
        f"§6 — the optimized attack vs each mitigation ({REGION})",
        [
            ComparisonRow(
                name,
                "-",
                f"cov {100 * r.coverage:.0f}% | {r.true_hosts} hosts | "
                f"fingerprint FMI {r.fingerprint_fmi:.2f} | ${r.cost_usd:.0f}",
            )
            for name, r in results.items()
        ],
    )


DEFENSES = FigureSpec(
    id="defenses", description="§6 defense evaluation (extension)",
    quick=DefensesConfig(),
    full=DefensesConfig(),
    driver=run, render=_render,
    bands=(
        Band("undefended coverage > 90%", "97.7/99.7% (Fig. 11a, us-east1)",
             lambda r: r["undefended"].coverage > 0.9),
        Band("undefended fingerprint FMI > 0.99", "~0.9999 (Fig. 4)",
             lambda r: r["undefended"].fingerprint_fmi > 0.99),
        Band("TSC emulation keeps placement co-location (coverage > 50%)",
             "masking the TSC does not move instances",
             lambda r: r["tsc_emulation"].coverage > 0.5),
        Band("TSC emulation blinds fingerprints (FMI < 0.5)", "TSC masking (§6)",
             lambda r: r["tsc_emulation"].fingerprint_fmi < 0.5),
        Band("randomized base hosts: attacker still holds > 100 hosts",
             "co-location-resistant scheduling (§6)",
             lambda r: r["randomized_base"].true_hosts > 100),
        Band("tenant isolation: zero coverage", "co-location-resistant scheduling (§6)",
             lambda r: r["tenant_isolation"].coverage == 0.0),
        Band("tenant isolation: attacker confined to <= 75 hosts", "one base set (~75)",
             lambda r: r["tenant_isolation"].true_hosts <= 75),
    ),
)

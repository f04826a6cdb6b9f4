"""Canonical telemetry scenarios behind the golden-trace regression tests.

Each scenario runs a small, fully seeded workload through the *real*
stack — experiment span, :func:`~repro.runner.pool.run_cells`, campaign
phases, launches, CTest batches, verification waves — under an enabled
:class:`~repro.telemetry.Telemetry` handle, and returns the handle for
export.  Because every simulated timestamp and span id derives from the
seeds alone, the deterministic JSONL export must be byte-identical run
to run; the checked-in ``*.jsonl`` files pin that down.

Cell functions live at module level so worker processes can unpickle
them: the scenarios are exercised serially *and* pooled, and the two
traces must not differ.
"""

from __future__ import annotations

from repro import units
from repro.cloud.services import ServiceConfig
from repro.cloud.topology import AccountPlacementPlan, RegionProfile
from repro.core.attack.campaign import ColocationCampaign
from repro.core.attack.locator import TargetVictimLocator, probe_latency_threshold
from repro.core.attack.strategies import optimized_launch
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier
from repro.experiments.base import default_env
from repro.faults import FaultPlan, FaultSpec
from repro.runner import CellSpec, RunnerConfig, run_cells
from repro.telemetry import Telemetry, telemetry_context


def _tiny_profile() -> RegionProfile:
    """The test suite's standard tiny region (see ``tests/conftest.py``)."""
    return RegionProfile(
        name="tiny",
        n_hosts=30,
        active_hosts=20,
        shard_size=5,
        helper_recruit_fraction=0.25,
        helper_pool_cap=12,
        hot_min_concurrency=8,
        plan=AccountPlacementPlan(
            account_shards={"account-1": 0, "account-2": 1, "account-3": 2},
        ),
    )


def _strategy(client):
    return optimized_launch(
        client,
        n_services=2,
        launches=3,
        instances_per_service=12,
        interval_s=10 * units.MINUTE,
    )


def attack_cell(config, seed):
    """One end-to-end co-location campaign on the tiny profile."""
    env = default_env(profile=_tiny_profile(), seed=seed)
    campaign = ColocationCampaign(
        attacker=env.attacker,
        victim=env.victim("account-2"),
        strategy=_strategy,
    )
    result = campaign.run(n_victim_instances=int(config["victims"]))
    return {
        "coverage": result.coverage,
        "shared_hosts": result.shared_hosts,
        "tests": result.verification.n_tests,
    }


def verification_cell(config, seed):
    """Fingerprint + scalable verification of one fleet on the tiny profile."""
    env = default_env(profile=_tiny_profile(), seed=seed)
    client = env.attacker
    service = client.deploy(ServiceConfig(name="golden"))
    handles = client.connect(service, int(config["instances"]))
    pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
    report = ScalableVerifier(RngCovertChannel()).verify(pairs)
    return {"hosts": report.n_hosts, "tests": report.n_tests}


def locator_cell(config, seed):
    """One uncontrolled-victim localization on the tiny profile."""
    env = default_env(profile=_tiny_profile(), seed=seed)
    outcome = _strategy(env.attacker)
    victim = env.victim("account-2")
    victim.deploy(ServiceConfig(name="victim"))
    victim.connect("victim", 1)
    pairs = [
        (h, fp)
        for h, fp in fingerprint_gen1_instances(outcome.handles, p_boot=1.0)
        if h.alive
    ]
    processing = float(config["processing"])
    locator = TargetVictimLocator(
        probe=lambda: env.attacker.probe("account-2/victim", processing),
        latency_threshold_s=probe_latency_threshold(processing),
        verifier=ScalableVerifier(RngCovertChannel()),
    )
    result = locator.locate(pairs)
    return {
        "converged": result.converged,
        "failure": result.failure,
        "rounds": result.rounds,
        "probes": result.probes,
    }


def attack_trace(
    parallelism: int = 0, cache_dir=None, cache: bool = False
) -> Telemetry:
    """Tiny-profile end-to-end attack, two campaign cells."""
    telemetry = Telemetry()
    with telemetry_context(telemetry):
        runner = RunnerConfig(
            parallelism=parallelism,
            cache_read=cache,
            cache_write=cache,
            cache_dir=cache_dir,
        )
        specs = [
            CellSpec(
                experiment="golden-attack",
                fn=attack_cell,
                config={"victims": 24},
                seed=seed,
                label=f"seed{seed}",
            )
            for seed in (11, 12)
        ]
        with telemetry.span("experiment", experiment="golden-attack", scale="tiny"):
            run_cells(specs, runner)
    return telemetry


def faulted_verification_trace(parallelism: int = 0) -> Telemetry:
    """Fault-injected verification run (launch errors, CTest noise/deaths,
    cell failures with retries) — exercises the recovery paths' spans."""
    telemetry = Telemetry()
    with telemetry_context(telemetry):
        plan = FaultPlan(
            FaultSpec(
                launch_error_rate=0.05,
                ctest_noise_rate=0.08,
                ctest_death_rate=0.04,
                cell_error_rate=0.25,
                seed=2,
            )
        )
        runner = RunnerConfig(
            parallelism=parallelism, fault_plan=plan, max_retries=3
        )
        specs = [
            CellSpec(
                experiment="golden-faulted",
                fn=verification_cell,
                config={"instances": 18},
                seed=seed,
                label=f"seed{seed}",
            )
            for seed in (3, 4)
        ]
        with telemetry.span(
            "experiment", experiment="golden-faulted", scale="tiny"
        ):
            run_cells(specs, runner)
    return telemetry


def locator_trace(parallelism: int = 0) -> Telemetry:
    """Tiny-profile victim localization, two cells — pins the ``locate``
    and ``locate.round`` span structure alongside the campaign spans."""
    telemetry = Telemetry()
    with telemetry_context(telemetry):
        runner = RunnerConfig(parallelism=parallelism)
        specs = [
            CellSpec(
                experiment="golden-locator",
                fn=locator_cell,
                config={"processing": 0.05},
                seed=seed,
                label=f"seed{seed}",
            )
            for seed in (21, 22)
        ]
        with telemetry.span(
            "experiment", experiment="golden-locator", scale="tiny"
        ):
            run_cells(specs, runner)
    return telemetry


SCENARIOS = {
    "attack_trace": attack_trace,
    "faulted_verification_trace": faulted_verification_trace,
    "locator_trace": locator_trace,
}

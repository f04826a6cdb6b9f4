"""Target Victim Locator campaign: localizing an uncontrolled victim.

The coverage experiments stop at "some attacker instance shares a host
with the victim"; this campaign goes the last mile and *names* that
instance, with the victim treated as a genuine black box — probe-able
through its public URL, never instrumentable.  One cell runs the whole
kill chain on a paper-scale fleet: optimized attacker launch, fingerprint
dedup to one candidate cluster per server, then the lock/probe binary
search of :class:`~repro.core.attack.TargetVictimLocator`.  Scoring is
oracle-side only (``true_host_of``): did the located instance really
share the victim's host?

Two reports come out:

* **probes vs fleet size** — the localization cost is O(log n_servers)
  lock/probe rounds, so the probe count grows logarithmically while the
  fleet grows linearly;
* **coverage/latency tradeoff** — more probes per measurement buy noise
  immunity (localization success under injected probe faults) at the
  price of localization wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.analysis.asciichart import render_series
from repro.cloud.services import ServiceConfig
from repro.cloud.topology import AccountPlacementPlan, RegionProfile
from repro.core.attack.locator import TargetVictimLocator, probe_latency_threshold
from repro.core.attack.strategies import optimized_launch
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier, TaggedInstance
from repro.experiments.base import default_env
from repro.experiments.report import format_series, pct
from repro.experiments.spec import Band, FigureSpec
from repro.faults import FaultPlan, FaultSpec
from repro.runner import CellSpec, RunnerConfig, run_cells
from repro.telemetry import current_telemetry


@dataclass(frozen=True)
class LocatorConfig:
    """One localization-campaign sweep."""

    fleet_sizes: tuple[int, ...] = (24, 30, 40)
    repetitions: int = 4
    n_services: int = 3
    launches: int = 4
    instances_per_service: int = 16
    victim_account: str = "account-2"
    processing_seconds: float = 0.05
    probes_per_measure: int = 3
    #: Explicit probe-noise rate for the tradeoff sweep; 0 leaves the
    #: ambient fault plan (``--faults``) in charge.
    probe_noise_rate: float = 0.0
    base_seed: int = 700


@dataclass
class LocatorPoint:
    """Aggregated outcomes of all repetitions at one fleet size."""

    n_hosts: int
    runs: int = 0
    hits: int = 0
    co_resident: int = 0
    rounds: list[int] = field(default_factory=list)
    probes: list[int] = field(default_factory=list)
    candidates: list[int] = field(default_factory=list)
    locate_seconds: list[float] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        """Hits over runs with a co-resident instance to find."""
        return self.hits / self.co_resident if self.co_resident else 0.0

    @property
    def mean_probes(self) -> float:
        return float(np.mean(self.probes)) if self.probes else 0.0

    @property
    def mean_rounds(self) -> float:
        return float(np.mean(self.rounds)) if self.rounds else 0.0

    @property
    def mean_candidates(self) -> float:
        return float(np.mean(self.candidates)) if self.candidates else 0.0

    @property
    def mean_locate_seconds(self) -> float:
        return float(np.mean(self.locate_seconds)) if self.locate_seconds else 0.0


@dataclass
class LocatorSummary:
    """Sweep result: one :class:`LocatorPoint` per fleet size."""

    points: list[LocatorPoint] = field(default_factory=list)

    @property
    def overall_success_rate(self) -> float:
        hits = sum(p.hits for p in self.points)
        co = sum(p.co_resident for p in self.points)
        return hits / co if co else 0.0


def _scaled_profile(n_hosts: int) -> RegionProfile:
    """A paper-shaped region scaled down to ``n_hosts`` total hosts."""
    active = max(10, (2 * n_hosts) // 3)
    return RegionProfile(
        name=f"scaled-{n_hosts}",
        n_hosts=n_hosts,
        active_hosts=active,
        shard_size=5,
        helper_recruit_fraction=0.25,
        helper_pool_cap=max(12, active // 2),
        hot_min_concurrency=8,
        plan=AccountPlacementPlan(
            account_shards={"account-1": 0, "account-2": 1, "account-3": 2},
        ),
    )


def _locator_cell(params: dict, seed: int) -> dict:
    """One full localization campaign; returns raw oracle-scored metrics."""
    fault_plan = None
    if params["probe_noise_rate"] > 0.0:
        fault_plan = FaultPlan(
            FaultSpec(probe_noise_rate=params["probe_noise_rate"], seed=seed)
        )
    env = default_env(
        profile=_scaled_profile(params["n_hosts"]),
        seed=seed,
        fault_plan=fault_plan,
    )
    attacker = env.attacker
    outcome = optimized_launch(
        attacker,
        n_services=params["n_services"],
        launches=params["launches"],
        instances_per_service=params["instances_per_service"],
        interval_s=10 * units.MINUTE,
    )
    victim = env.victim(params["victim_account"])
    victim.deploy(ServiceConfig(name="victim"))
    victim.connect("victim", 1)
    victim_url = f"{params['victim_account']}/victim"

    pairs = fingerprint_gen1_instances(outcome.handles, p_boot=1.0)
    tagged = [
        TaggedInstance(handle, fp, fp.cpu_model)
        for handle, fp in pairs
        if handle.alive
    ]
    processing = params["processing_seconds"]
    locator = TargetVictimLocator(
        probe=lambda: attacker.probe(victim_url, processing),
        latency_threshold_s=probe_latency_threshold(processing),
        verifier=ScalableVerifier(RngCovertChannel()),
        probes_per_measure=params["probes_per_measure"],
    )
    started = env.clock.now()
    result = locator.locate(tagged)
    locate_seconds = env.clock.now() - started

    # Oracle scoring only: the attacker-side logic above never sees a
    # host id (THREAT_MODEL.md).
    orch = env.orchestrator
    victim_instance = orch.alive_instances(orch.services[victim_url])[0]
    victim_host = orch.true_host_of(victim_instance.instance_id)
    co_resident = any(
        orch.true_host_of(handle.instance_id) == victim_host
        for handle in outcome.handles
        if handle.alive
    )
    hit = (
        result.converged
        and orch.true_host_of(result.located.instance_id) == victim_host
    )
    return {
        "converged": result.converged,
        "failure": result.failure,
        "hit": bool(hit),
        "co_resident": bool(co_resident),
        "rounds": result.rounds,
        "probes": result.probes,
        "attempts": result.attempts,
        "candidates": result.initial_candidates,
        "baseline_latency_s": result.baseline_latency_s,
        "locked_latency_s": result.locked_latency_s,
        "locate_seconds": locate_seconds,
        "cost_usd": outcome.cost_usd,
    }


def _cell_params(config: LocatorConfig, n_hosts: int) -> dict:
    return {
        "n_hosts": n_hosts,
        "n_services": config.n_services,
        "launches": config.launches,
        "instances_per_service": config.instances_per_service,
        "victim_account": config.victim_account,
        "processing_seconds": config.processing_seconds,
        "probes_per_measure": config.probes_per_measure,
        "probe_noise_rate": config.probe_noise_rate,
    }


def run(
    config: LocatorConfig = LocatorConfig(),
    runner: RunnerConfig | None = None,
) -> LocatorSummary:
    """Run the fleet-size sweep; every repetition is an independent cell."""
    specs = [
        CellSpec(
            experiment="victim-locator",
            fn=_locator_cell,
            config=_cell_params(config, n_hosts),
            seed=config.base_seed + rep,
            label=f"hosts-{n_hosts}/rep{rep}",
        )
        for n_hosts in config.fleet_sizes
        for rep in range(config.repetitions)
    ]
    with current_telemetry().span(
        "victim_locator.sweep", cells=len(specs), sizes=list(config.fleet_sizes)
    ):
        results = run_cells(specs, runner)

    summary = LocatorSummary()
    cursor = 0
    for n_hosts in config.fleet_sizes:
        point = LocatorPoint(n_hosts=n_hosts)
        for result in results[cursor : cursor + config.repetitions]:
            value = result.value
            point.runs += 1
            point.hits += int(value["hit"])
            point.co_resident += int(value["co_resident"])
            point.rounds.append(value["rounds"])
            point.probes.append(value["probes"])
            point.candidates.append(value["candidates"])
            point.locate_seconds.append(value["locate_seconds"])
        cursor += config.repetitions
        summary.points.append(point)
    return summary


def run_tradeoff(
    config: LocatorConfig = LocatorConfig(),
    probes_grid: tuple[int, ...] = (1, 3, 5),
    noise_rate: float = 0.05,
    runner: RunnerConfig | None = None,
) -> dict[int, LocatorPoint]:
    """Coverage/latency tradeoff: success under probe noise vs wall time.

    Reruns the sweep's *middle* fleet size under an explicit probe-noise
    fault plan while varying the probes-per-measurement budget.  A budget
    of 1 trusts every response (fast, noise-fragile); larger odd budgets
    take the median (slower, noise-robust).
    """
    n_hosts = config.fleet_sizes[len(config.fleet_sizes) // 2]
    specs = []
    for probes in probes_grid:
        params = _cell_params(config, n_hosts)
        params["probes_per_measure"] = probes
        params["probe_noise_rate"] = noise_rate
        specs.extend(
            CellSpec(
                experiment="victim-locator",
                fn=_locator_cell,
                config=params,
                seed=config.base_seed + rep,
                label=f"probes-{probes}/rep{rep}",
            )
            for rep in range(config.repetitions)
        )
    results = run_cells(specs, runner)

    tradeoff: dict[int, LocatorPoint] = {}
    cursor = 0
    for probes in probes_grid:
        point = LocatorPoint(n_hosts=n_hosts)
        for result in results[cursor : cursor + config.repetitions]:
            value = result.value
            point.runs += 1
            point.hits += int(value["hit"])
            point.co_resident += int(value["co_resident"])
            point.rounds.append(value["rounds"])
            point.probes.append(value["probes"])
            point.candidates.append(value["candidates"])
            point.locate_seconds.append(value["locate_seconds"])
        cursor += config.repetitions
        tradeoff[probes] = point
    return tradeoff


def run_with_tradeoff(
    config: LocatorConfig = LocatorConfig(),
    runner: RunnerConfig | None = None,
) -> tuple[LocatorSummary, dict[int, LocatorPoint]]:
    """The fleet-size sweep, then its coverage/latency tradeoff."""
    return run(config, runner=runner), run_tradeoff(config, runner=runner)


def _render(
    results: tuple[LocatorSummary, dict[int, LocatorPoint]], config: LocatorConfig
) -> str:
    summary, tradeoff = results
    table = format_series(
        "Victim locator — localization cost vs fleet size",
        ("hosts", "candidates", "rounds", "probes", "success"),
        [
            (
                p.n_hosts,
                p.mean_candidates,
                p.mean_rounds,
                p.mean_probes,
                pct(p.success_rate),
            )
            for p in summary.points
        ],
    )
    chart = render_series(
        [p.n_hosts for p in summary.points],
        [p.mean_probes for p in summary.points],
        title="localization probes vs fleet size",
        x_label="hosts",
        y_label="probes",
    )
    tail = format_series(
        "Victim locator — coverage/latency tradeoff (probe noise 5%)",
        ("probes/measure", "success", "probe_count", "locate_s"),
        [
            (probes, pct(p.success_rate), p.mean_probes, p.mean_locate_seconds)
            for probes, p in tradeoff.items()
        ],
    )
    return table + "\n\n" + chart + "\n\n" + tail


def _probes_sublinear(summary: LocatorSummary) -> bool:
    first, last = summary.points[0], summary.points[-1]
    return last.mean_probes / first.mean_probes < last.n_hosts / first.n_hosts


VICTIM_LOCATOR = FigureSpec(
    id="victim_locator", description="uncontrolled-victim localization (extension)",
    quick=LocatorConfig(fleet_sizes=(24, 30), repetitions=2),
    full=LocatorConfig(fleet_sizes=(24, 30, 40, 60), repetitions=4),
    driver=run_with_tradeoff, render=_render,
    bands=(
        Band("locates the victim in >= 95% of co-resident runs",
             "extension: co-location to a named instance",
             lambda r: r[0].overall_success_rate >= 0.95),
        Band("probes grow slower than the fleet", "O(log n) lock/probe rounds",
             lambda r: _probes_sublinear(r[0])),
        Band("5 probes/measure succeed at least as often as 1 under 5% noise",
             "extension: median probing resists noise",
             lambda r: r[1][5].success_rate >= r[1][1].success_rate),
        Band("locate time grows with probes/measure", "extension: noise immunity costs time",
             lambda r: r[1][1].mean_locate_seconds < r[1][3].mean_locate_seconds
             < r[1][5].mean_locate_seconds),
    ),
)

"""Background-traffic micro-benchmark: event-driven vs per-tick scalar.

Drives the same generated tenant population two ways on scaled copies of
the ``test-region1`` profile (1x/4x/16x fleet, up to 1000 tenants):

* ``scalar`` — the frozen pre-engine reference: one Python loop over
  evaluation ticks, each tick calling ``pattern.concurrency_at`` and the
  full ``Orchestrator.scale_to`` list path for *every* tenant, whether or
  not its target changed;
* ``vectorized`` — :class:`repro.cloud.traffic.BackgroundDriver`:
  schedules precomputed as matrices, per-phase batched events on the
  shared scheduler, columnar ACTIVE counts, orchestrator calls only for
  tenants whose target moved.

Setup (population generation, account registration, service deploys) is
identical work and excluded from the timed region; only the driving
itself is measured.

Run::

    PYTHONPATH=src python benchmarks/bench_traffic.py --out BENCH_traffic.json

Exit status is non-zero if the vectorized engine regresses at 1x scale or
misses the 5x speedup floor at 16x (1000 tenants).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field

from repro import units
from repro.cloud.accounts import Account
from repro.cloud.datacenter import DataCenter
from repro.cloud.orchestrator import Orchestrator
from repro.cloud.services import CONTAINER_SIZES, ServiceConfig
from repro.cloud.topology import REGION_PROFILES
from repro.cloud.traffic import BackgroundDriver, TenantPopulation, TrafficConfig
from repro.simtime.clock import SimClock

SCALES = {"1x": 1, "4x": 4, "16x": 16}
TENANTS = {"1x": 60, "4x": 250, "16x": 1000}
DURATION_S = 10 * units.MINUTE
PERIOD_S = 15.0
REPEATS = 2


def scaled_profile(factor: int):
    base = REGION_PROFILES["test-region1"]
    return dataclasses.replace(
        base,
        name=f"bench-{factor}x",
        n_hosts=base.n_hosts * factor,
        active_hosts=base.active_hosts * factor,
        shard_size=base.shard_size * factor,
    )


def build_env(factor: int, seed: int = 0) -> Orchestrator:
    clock = SimClock()
    datacenter = DataCenter(scaled_profile(factor), clock, seed=seed)
    return Orchestrator(datacenter)


def traffic_config(n_tenants: int) -> TrafficConfig:
    return TrafficConfig(
        n_tenants=n_tenants, seed=7, duration_s=DURATION_S,
        evaluation_period_s=PERIOD_S,
    )


# ----------------------------------------------------------------------
# Frozen scalar reference (pre-engine idiom: Autoscaler.drive per tenant,
# collapsed to one interleaved tick loop so tenants share the clock).
# The record types are the retired autoscaler's, kept verbatim so the
# baseline pays for the same per-evaluation allocations.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AutoscalePoint:
    """One autoscaler evaluation."""

    elapsed_s: float
    demanded_concurrency: int
    target_instances: int
    active_instances: int
    alive_instances: int


@dataclass
class AutoscaleTrace:
    """The instance-count history of one driven service."""

    points: list[AutoscalePoint] = field(default_factory=list)

    @property
    def peak_instances(self) -> int:
        return max((p.active_instances for p in self.points), default=0)

    @property
    def trough_instances(self) -> int:
        return min((p.active_instances for p in self.points), default=0)

    def active_series(self) -> list[tuple[float, int]]:
        """``(elapsed_s, active_instances)`` pairs for plotting."""
        return [(p.elapsed_s, p.active_instances) for p in self.points]


def scalar_drive(factor: int, population: TenantPopulation) -> float:
    """Per-tick scalar driving; returns the timed driving seconds.

    Every tick does exactly what one ``Autoscaler.drive`` evaluation did
    before the engine existed, for every tenant: a scalar
    ``concurrency_at`` sample, the full ``scale_to`` list path whether or
    not the target moved, and an :class:`AutoscalePoint` whose alive
    count is a ``len(alive_instances(...))`` list scan.  That scan is
    part of the baseline the same way the full-fleet dict rebuild is part
    of ``bench_fleet``'s.
    """
    orch = build_env(factor)
    config = population.config
    services = []
    for spec in population.specs:
        orch.register_account(Account(spec.account_id))
        services.append(
            orch.deploy_service(
                spec.account_id,
                ServiceConfig(
                    name=spec.service_name,
                    size=CONTAINER_SIZES[spec.size],
                    max_instances=config.max_instances,
                    concurrency=spec.concurrency,
                ),
            )
        )
    traces = [AutoscaleTrace() for _ in services]
    n_slots = int(math.floor(config.duration_s / PERIOD_S + 1e-9)) + 1
    start = time.perf_counter()
    for slot in range(n_slots):
        elapsed = slot * PERIOD_S
        for spec, pattern, service, trace in zip(
            population.specs, population.patterns, services, traces
        ):
            demand = pattern.concurrency_at(elapsed + spec.phase_s)
            target = min(
                -(-demand // spec.concurrency), config.max_instances
            )
            active = orch.scale_to(service, target, sleep_startup=False)
            trace.points.append(
                AutoscalePoint(
                    elapsed_s=elapsed,
                    demanded_concurrency=demand,
                    target_instances=target,
                    active_instances=len(active),
                    alive_instances=len(orch.alive_instances(service)),
                )
            )
        orch.clock.sleep(PERIOD_S)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Event-driven engine
# ----------------------------------------------------------------------
def vectorized_drive(factor: int, population: TenantPopulation) -> float:
    orch = build_env(factor)
    driver = BackgroundDriver(orch, population)
    driver.start()  # deploys (setup parity with the scalar loop)
    start = time.perf_counter()
    orch.clock.sleep(population.config.duration_s + PERIOD_S)
    elapsed = time.perf_counter() - start
    driver.stop()
    return elapsed


def best_of(fn, factor, population):
    return min(fn(factor, population) for _ in range(REPEATS))


def run() -> dict:
    results: dict = {
        "duration_s": DURATION_S,
        "evaluation_period_s": PERIOD_S,
        "tenants": dict(TENANTS),
        "scales": {},
    }
    for label, factor in SCALES.items():
        population = TenantPopulation.generate(traffic_config(TENANTS[label]))
        scalar_t = best_of(scalar_drive, factor, population)
        vector_t = best_of(vectorized_drive, factor, population)
        scale = {
            "n_hosts": scaled_profile(factor).n_hosts,
            "n_tenants": TENANTS[label],
            "scalar_s": round(scalar_t, 6),
            "vectorized_s": round(vector_t, 6),
            "speedup": round(scalar_t / vector_t, 3),
        }
        results["scales"][label] = scale
        print(
            f"{label:>4} ({scale['n_hosts']} hosts, {scale['n_tenants']} tenants): "
            f"scalar {scalar_t:.3f}s, vectorized {vector_t:.3f}s, "
            f"{scale['speedup']}x"
        )
    return results


def check(results: dict) -> list[str]:
    failures = []
    at_16x = results["scales"]["16x"]["speedup"]
    if at_16x < 5.0:
        failures.append(f"16x traffic speedup {at_16x}x is below the 5x floor")
    at_1x = results["scales"]["1x"]["speedup"]
    if at_1x < 1.0:
        failures.append(f"vectorized engine regresses at 1x scale ({at_1x}x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_traffic.json", help="output path")
    args = parser.parse_args(argv)
    results = run()
    failures = check(results)
    results["pass"] = not failures
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

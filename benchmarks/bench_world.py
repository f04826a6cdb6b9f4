"""Warm-world snapshot benchmark: fork a built region vs rebuild it.

Drives a channel-matrix-shaped 16-cell grid (4 covert channels x 2
platform personalities x 2 repetitions) where every cell needs the same
kind of expensive world: a 16x-scaled ``test-region1`` fleet with a
1000-tenant background population warmed to steady state.  Cells
sharing a platform share one world (repetitions vary the cell's own
service deployments, so their results still differ).  Two ways:

* ``fresh`` — the pre-snapshot behavior: every cell rebuilds its world
  from scratch (datacenter columns, 1000 service deploys, the full
  warmup drive);
* ``warm`` — :class:`repro.runner.WorldCache`: the first cell per
  distinct (platform, seed) world builds and checkpoints it, every
  sibling forks the pickled snapshot.

Cell *work* (fingerprint + channel verification + oracle scoring) is
identical in both modes, and the per-cell result digests are asserted
byte-identical — forking must never change an answer.

A second, informational section times one figure-family sweep (4
channels, one world) at the 64x fleet tier.

Run::

    PYTHONPATH=src python benchmarks/bench_world.py --out BENCH_world.json

Exit status is non-zero if the warm path misses the 3x speedup floor on
the 16-cell grid, or if any forked cell's value diverges from its fresh
twin.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pickle
import sys
import time

from repro import units
from repro.analysis.metrics import pair_confusion
from repro.cloud.platform import platform_profile
from repro.cloud.services import ServiceConfig
from repro.cloud.topology import REGION_PROFILES
from repro.cloud.traffic import TrafficConfig
from repro.core.covert import covert_channel_for
from repro.core.fingerprint import (
    fingerprint_gen1_instances,
    fingerprint_gen2_instances,
)
from repro.core.verification import ScalableVerifier
from repro.experiments.base import SimulationEnv, default_env
from repro.runner import EnvSpec, WorldCache

CHANNELS = ("rng", "bus", "llc", "dvfs")
PLATFORMS = ("default", "aws_lambda_like")
REPETITIONS = 2
N_TENANTS = 1000
WARMUP_S = 3 * units.HOUR
BASE_SEED = 9200
SPEEDUP_FLOOR = 3.0


def scaled_profile(factor: int):
    base = REGION_PROFILES["test-region1"]
    return dataclasses.replace(
        base,
        name=f"bench-world-{factor}x",
        n_hosts=base.n_hosts * factor,
        active_hosts=base.active_hosts * factor,
        shard_size=base.shard_size * factor,
    )


def traffic_config(seed: int) -> TrafficConfig:
    return TrafficConfig(
        n_tenants=N_TENANTS,
        seed=seed + 1_000_003,
        duration_s=WARMUP_S + 30 * units.MINUTE,
    )


def world_spec(factor: int, platform: str, seed: int) -> EnvSpec:
    return EnvSpec(
        seed=seed,
        profile=scaled_profile(factor),
        platform=platform_profile(platform),
        background=traffic_config(seed),
    )


def build_world(factor: int, platform: str, seed: int) -> SimulationEnv:
    """The expensive part: build the region and warm the population."""
    env = default_env(
        profile=scaled_profile(factor),
        seed=seed,
        platform=platform_profile(platform),
        background=traffic_config(seed),
    )
    env.clock.sleep(WARMUP_S)
    return env


def cell_work(env: SimulationEnv, channel_kind: str, rep: int) -> dict:
    """Channel-matrix cell body: fingerprint, verify, oracle-score.

    ``rep`` varies the deployed service names, so repetition cells draw
    different placements from the shared world and produce distinct
    results — each still byte-reproducible fresh vs forked.
    """
    platform = env.datacenter.platform
    attacker = env.attacker
    handles = []
    for index in range(2):
        name = attacker.deploy(ServiceConfig(name=f"bench-{rep}-{index}"))
        handles.extend(attacker.connect(name, 4))
    handles = [handle for handle in handles if handle.alive]
    if platform.instance_id_exposure == "gen2":
        pairs = fingerprint_gen2_instances(handles)
    else:
        pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
    pairs = [(handle, fingerprint) for handle, fingerprint in pairs if handle.alive]
    report = ScalableVerifier(covert_channel_for(channel_kind)).verify(pairs)
    predicted = report.cluster_index()
    truth = {
        instance_id: env.orchestrator.true_host_of(instance_id)
        for instance_id in predicted
    }
    confusion = pair_confusion(predicted, truth)
    return {
        "channel": channel_kind,
        "fmi": confusion.fmi,
        "n_tests": report.n_tests,
        "busy_seconds": report.busy_seconds,
    }


def grid_cells() -> list[tuple[str, str, int]]:
    """(channel, platform, rep) triples, channel-major like the driver."""
    return [
        (channel, platform, rep)
        for channel in CHANNELS
        for platform in PLATFORMS
        for rep in range(REPETITIONS)
    ]


def digest(value: dict) -> str:
    return hashlib.sha256(pickle.dumps(value)).hexdigest()


def run_fresh(factor: int) -> tuple[float, list[str]]:
    start = time.perf_counter()
    digests = []
    for channel, platform, rep in grid_cells():
        env = build_world(factor, platform, BASE_SEED)
        digests.append(digest(cell_work(env, channel, rep)))
    return time.perf_counter() - start, digests


def run_warm(factor: int) -> tuple[float, list[str], WorldCache]:
    cache = WorldCache(maxsize=len(PLATFORMS))
    start = time.perf_counter()
    digests = []
    for channel, platform, rep in grid_cells():
        env = cache.build_or_fork(
            world_spec(factor, platform, BASE_SEED),
            lambda p=platform: build_world(factor, p, BASE_SEED),
        )
        digests.append(digest(cell_work(env, channel, rep)))
    return time.perf_counter() - start, digests, cache


def run() -> dict:
    results: dict = {
        "grid": {
            "channels": list(CHANNELS),
            "platforms": list(PLATFORMS),
            "repetitions": REPETITIONS,
            "n_tenants": N_TENANTS,
            "warmup_s": WARMUP_S,
        },
    }

    factor = 16
    fresh_t, fresh_digests = run_fresh(factor)
    warm_t, warm_digests, cache = run_warm(factor)
    results["16x"] = {
        "n_hosts": scaled_profile(factor).n_hosts,
        "cells": len(fresh_digests),
        "fresh_s": round(fresh_t, 6),
        "warm_s": round(warm_t, 6),
        "speedup": round(fresh_t / warm_t, 3),
        "worldcache_builds": cache.misses,
        "worldcache_forks": cache.hits,
        "identical": fresh_digests == warm_digests,
    }
    print(
        f" 16x ({results['16x']['n_hosts']} hosts, {N_TENANTS} tenants): "
        f"fresh {fresh_t:.3f}s, warm {warm_t:.3f}s "
        f"({cache.misses} builds + {cache.hits} forks), "
        f"{results['16x']['speedup']}x, "
        f"identical={results['16x']['identical']}"
    )

    # Informational 64x tier: one figure family (4 channels, one world).
    factor = 64
    start = time.perf_counter()
    family_fresh = [
        digest(
            cell_work(build_world(factor, "default", BASE_SEED), channel, 0)
        )
        for channel in CHANNELS
    ]
    fresh_t = time.perf_counter() - start
    cache = WorldCache(maxsize=1)
    start = time.perf_counter()
    family_warm = [
        digest(
            cell_work(
                cache.build_or_fork(
                    world_spec(factor, "default", BASE_SEED),
                    lambda: build_world(factor, "default", BASE_SEED),
                ),
                channel,
                0,
            )
        )
        for channel in CHANNELS
    ]
    warm_t = time.perf_counter() - start
    results["64x_family"] = {
        "n_hosts": scaled_profile(factor).n_hosts,
        "cells": len(CHANNELS),
        "fresh_s": round(fresh_t, 6),
        "warm_s": round(warm_t, 6),
        "speedup": round(fresh_t / warm_t, 3),
        "identical": family_fresh == family_warm,
    }
    print(
        f" 64x ({results['64x_family']['n_hosts']} hosts) figure family: "
        f"fresh {fresh_t:.3f}s, warm {warm_t:.3f}s, "
        f"{results['64x_family']['speedup']}x, "
        f"identical={results['64x_family']['identical']}"
    )
    return results


def check(results: dict) -> list[str]:
    failures = []
    grid = results["16x"]
    if not grid["identical"]:
        failures.append("forked 16x cells diverge from fresh-built twins")
    if grid["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"16x warm-world speedup {grid['speedup']}x is below the "
            f"{SPEEDUP_FLOOR}x floor"
        )
    if not results["64x_family"]["identical"]:
        failures.append("forked 64x family cells diverge from fresh twins")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_world.json", help="output path")
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

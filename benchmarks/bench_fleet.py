"""Fleet-store micro-benchmark: columnar store vs the pre-refactor dicts.

Measures the three hot fleet-state paths at 1x/4x/16x/64x/256x the paper
fleet scale (us-east1, 520 hosts; 64x ~ a 33k-host hyperscale region,
256x ~ 133k hosts):

* ``placement`` — batch placement onto a small base-host set, including
  the per-call full-fleet ``{host_id: capacity}`` dict rebuild the old
  orchestrator performed on every launch;
* ``rotation`` — serving-pool rotation steps;
* ``census`` — merging per-launch host observations and scoring victim
  coverage (set membership vs index masks).

The dict baseline below is a frozen, faithful port of the pre-columnar
implementation (heap placement over host-id dicts, list-based pool
rotation, set-based census); it exists only for comparison and is not
used by the simulator.  Its list-rebuild rotation is quadratic in fleet
size, so the baselines are timed once (not best-of-3) at 64x and skipped
entirely at 256x, where the tier instead reports columnar timings plus a
tracemalloc memory ceiling for registering 5,000 services in the instance
table.

Run::

    PYTHONPATH=src python benchmarks/bench_fleet.py --out BENCH_fleet.json

Exit status is non-zero if the columnar store regresses at 1x scale,
fails the 3x placement+census speedup floor at 16x or 64x, or the 256x
per-service memory ceiling is breached.
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
import time
import tracemalloc

import numpy as np

from repro.cloud.placement import PlacementPolicy, PlacementRequest
from repro.fleet import FleetStore, InstanceStore
from repro.simtime.clock import SimClock

PAPER_FLEET_HOSTS = 520  # us-east1
PAPER_ACTIVE_FRACTION = 300 / 520
SCALES = {"1x": 1, "4x": 4, "16x": 16, "64x": 64, "256x": 256}

ALLOWED_SIZE = 15  # one shard's worth of base hosts
PLACEMENT_CALLS = 60
PLACEMENT_COUNT = 40
ROTATION_STEPS = 120
ROTATION_FRACTION = 0.03
CENSUS_LAUNCHES = 40
CENSUS_VICTIMS = 100
REPEATS = 3
FAST_REPEAT_MAX_FACTOR = 16  # best-of-3 below, single timing above
DICT_BASELINE_MAX_FACTOR = 64  # the dict rotation is quadratic; cap it

# 256x memory-ceiling tier: per-service state must stay O(services), never
# O(hosts x services).  Nothing is keyed by (host, service): where a service
# runs is its instance rows, so registering a service touches no host.
MEMORY_GATE_FACTOR = 256
MEMORY_SERVICES = 5_000
MEMORY_TOUCHED_PER_SERVICE = 0
MEMORY_BUDGET_BYTES = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# Frozen pre-refactor baseline (host-id dicts, lists, sets)
# ----------------------------------------------------------------------
class DictPlacementPolicy:
    """The pre-columnar placement policy, verbatim."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def place(self, count, slots, allowed_host_ids, service_counts,
              load_slots, capacity_slots):
        heap = [
            (service_counts.get(h, 0), float(self._rng.random()), h)
            for h in allowed_host_ids
        ]
        heapq.heapify(heap)
        chosen = []
        for _ in range(count):
            host_id = self._pop_least_used(heap, slots, load_slots, capacity_slots)
            if host_id is None:
                raise RuntimeError("no capacity")
            load_slots[host_id] = load_slots.get(host_id, 0.0) + slots
            chosen.append(host_id)
        return chosen

    def _pop_least_used(self, heap, slots, load_slots, capacity_slots):
        while heap:
            count, tiebreak, host_id = heapq.heappop(heap)
            load = load_slots.get(host_id, 0.0)
            if load + slots > capacity_slots.get(host_id, 0.0):
                continue
            heapq.heappush(heap, (count + 1, tiebreak, host_id))
            return host_id
        return None


def dict_placement_workload(n_hosts, seed=0):
    host_ids = [f"h{i:06d}" for i in range(n_hosts)]
    hosts = {h: 1e9 for h in host_ids}
    load_slots: dict[str, float] = {}
    rng = np.random.default_rng(seed)
    policy = DictPlacementPolicy(rng)
    allowed = host_ids[:ALLOWED_SIZE]
    counts: dict[str, int] = {}
    for _ in range(PLACEMENT_CALLS):
        # The old orchestrator rebuilt the full-fleet capacity dict on
        # every placement call — that rebuild is part of the baseline.
        capacities = {h: hosts[h] for h in host_ids}
        placed = policy.place(
            PLACEMENT_COUNT, 1.0, allowed, counts, load_slots, capacities
        )
        for h in placed:
            counts[h] = counts.get(h, 0) + 1


def dict_rotation_workload(n_hosts, seed=0):
    host_ids = [f"h{i:06d}" for i in range(n_hosts)]
    rng = np.random.default_rng(seed)
    active = int(n_hosts * PAPER_ACTIVE_FRACTION)
    pool_idx = rng.choice(n_hosts, size=active, replace=False)
    pool = [host_ids[i] for i in pool_idx]
    rotated = [h for h in host_ids if h not in set(pool)]
    for _ in range(ROTATION_STEPS):
        swap = min(int(round(ROTATION_FRACTION * len(pool))), len(rotated))
        out_idx = rng.choice(len(pool), size=swap, replace=False)
        in_idx = rng.choice(len(rotated), size=swap, replace=False)
        out_set = {pool[i] for i in out_idx}
        in_set = {rotated[i] for i in in_idx}
        out_ids = [pool[i] for i in out_idx]
        in_ids = [rotated[i] for i in in_idx]
        pool = [h for h in pool if h not in out_set] + in_ids
        rotated = [h for h in rotated if h not in in_set] + out_ids


def dict_census_workload(n_hosts, seed=0):
    host_ids = [f"h{i:06d}" for i in range(n_hosts)]
    rng = np.random.default_rng(seed)
    launch_size = int(n_hosts * PAPER_ACTIVE_FRACTION)
    seen: set[str] = set()
    uniques = []
    for _ in range(CENSUS_LAUNCHES):
        observed = rng.choice(n_hosts, size=launch_size, replace=False)
        footprint = {host_ids[i] for i in observed}
        seen |= footprint
        uniques.append(len(seen))
    victims = [host_ids[int(i)] for i in rng.choice(n_hosts, size=CENSUS_VICTIMS)]
    coverage = sum(1 for h in victims if h in seen) / len(victims)
    return uniques, coverage


# ----------------------------------------------------------------------
# Columnar equivalents
# ----------------------------------------------------------------------
def columnar_placement_workload(n_hosts, seed=0):
    store = FleetStore([f"h{i:06d}" for i in range(n_hosts)], capacity_slots=1e9)
    allowed = np.arange(ALLOWED_SIZE, dtype=np.int64)
    counts = np.zeros(n_hosts, dtype=np.int64)
    policy = PlacementPolicy(np.random.default_rng(seed))
    for _ in range(PLACEMENT_CALLS):
        placed = policy.place(
            PlacementRequest(
                count=PLACEMENT_COUNT,
                slots_per_instance=1.0,
                allowed=allowed,
                allowed_counts=counts[allowed],
            ),
            store,
        )
        np.add.at(counts, placed, 1)


def columnar_rotation_workload(n_hosts, seed=0):
    store = FleetStore([f"h{i:06d}" for i in range(n_hosts)])
    rng = np.random.default_rng(seed)
    active = int(n_hosts * PAPER_ACTIVE_FRACTION)
    store.set_pool(rng.choice(n_hosts, size=active, replace=False))
    for _ in range(ROTATION_STEPS):
        pool_size = len(store.pool_order)
        rotated_size = len(store.rotated_order)
        swap = min(int(round(ROTATION_FRACTION * pool_size)), rotated_size)
        out_pos = rng.choice(pool_size, size=swap, replace=False)
        in_pos = rng.choice(rotated_size, size=swap, replace=False)
        store.rotate(out_pos, in_pos)


def columnar_census_workload(n_hosts, seed=0):
    store = FleetStore([f"h{i:06d}" for i in range(n_hosts)])
    rng = np.random.default_rng(seed)
    launch_size = int(n_hosts * PAPER_ACTIVE_FRACTION)
    seen = np.zeros(store.n_hosts, dtype=bool)
    uniques = []
    for _ in range(CENSUS_LAUNCHES):
        observed = rng.choice(n_hosts, size=launch_size, replace=False)
        seen[observed] = True
        uniques.append(int(seen.sum()))
    victims = rng.choice(n_hosts, size=CENSUS_VICTIMS)
    coverage = float(seen[victims].mean())
    return uniques, coverage


def service_memory_workload(n_hosts):
    """Tracemalloc growth of registering services in the instance table.

    Returns the measured growth next to the dense-equivalent cost (one
    int64 host column per service) — ~5.3 GB at 256x, versus single-digit
    megabytes for the per-service state the instance table keeps.
    """
    tracemalloc.start()
    instances = InstanceStore(SimClock(), hosts=[])
    baseline, _ = tracemalloc.get_traced_memory()
    for s in range(MEMORY_SERVICES):
        instances.service_index(f"svc-{s:05d}")
    grown, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "n_services": MEMORY_SERVICES,
        "touched_per_service": MEMORY_TOUCHED_PER_SERVICE,
        "grown_bytes": int(grown - baseline),
        "dense_equivalent_bytes": int(MEMORY_SERVICES) * n_hosts * 8,
        "budget_bytes": MEMORY_BUDGET_BYTES,
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
WORKLOADS = {
    "placement": (dict_placement_workload, columnar_placement_workload),
    "rotation": (dict_rotation_workload, columnar_rotation_workload),
    "census": (dict_census_workload, columnar_census_workload),
}


def best_of(fn, n_hosts, repeats=REPEATS):
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(n_hosts)
        timings.append(time.perf_counter() - start)
    return min(timings)


def run() -> dict:
    results: dict = {
        "paper_fleet_hosts": PAPER_FLEET_HOSTS,
        "workload": {
            "placement_calls": PLACEMENT_CALLS,
            "instances_per_call": PLACEMENT_COUNT,
            "allowed_hosts": ALLOWED_SIZE,
            "rotation_steps": ROTATION_STEPS,
            "census_launches": CENSUS_LAUNCHES,
            "memory_services": MEMORY_SERVICES,
        },
        "scales": {},
    }
    for label, factor in SCALES.items():
        n_hosts = PAPER_FLEET_HOSTS * factor
        repeats = REPEATS if factor <= FAST_REPEAT_MAX_FACTOR else 1
        with_dict = factor <= DICT_BASELINE_MAX_FACTOR
        scale: dict = {"n_hosts": n_hosts, "repeats": repeats, "columnar_s": {}}
        if with_dict:
            scale["dict_s"] = {}
            scale["speedup"] = {}
        for name, (dict_fn, columnar_fn) in WORKLOADS.items():
            col_t = best_of(columnar_fn, n_hosts, repeats)
            scale["columnar_s"][name] = round(col_t, 6)
            if with_dict:
                dict_t = best_of(dict_fn, n_hosts, repeats)
                scale["dict_s"][name] = round(dict_t, 6)
                scale["speedup"][name] = round(dict_t / col_t, 3)
        if with_dict:
            pc_dict = scale["dict_s"]["placement"] + scale["dict_s"]["census"]
            pc_col = (
                scale["columnar_s"]["placement"] + scale["columnar_s"]["census"]
            )
            scale["speedup"]["placement_plus_census"] = round(pc_dict / pc_col, 3)
            summary = ", ".join(
                f"{name} {scale['speedup'][name]}x" for name in WORKLOADS
            ) + f", placement+census {scale['speedup']['placement_plus_census']}x"
        else:
            summary = "columnar-only: " + ", ".join(
                f"{name} {scale['columnar_s'][name]}s" for name in WORKLOADS
            )
        if factor >= MEMORY_GATE_FACTOR:
            mem = service_memory_workload(n_hosts)
            scale["service_memory"] = mem
            summary += (
                f", {mem['n_services']} services in "
                f"{mem['grown_bytes'] / 1e6:.1f}MB "
                f"(dense {mem['dense_equivalent_bytes'] / 1e9:.1f}GB)"
            )
        results["scales"][label] = scale
        print(f"{label:>4} ({n_hosts} hosts): {summary}")
    return results


def check(results: dict) -> list[str]:
    failures = []
    for label in ("16x", "64x"):
        speedup = results["scales"][label]["speedup"]["placement_plus_census"]
        if speedup < 3.0:
            failures.append(
                f"{label} placement+census speedup {speedup}x is below the 3x floor"
            )
    at_1x = results["scales"]["1x"]["speedup"]["placement_plus_census"]
    if at_1x < 1.0:
        failures.append(f"columnar store regresses at 1x scale ({at_1x}x)")
    mem = results["scales"]["256x"]["service_memory"]
    if mem["grown_bytes"] >= mem["budget_bytes"]:
        failures.append(
            f"256x per-service memory {mem['grown_bytes']} bytes breaches "
            f"the {mem['budget_bytes']}-byte ceiling"
        )
    if mem["grown_bytes"] * 20 >= mem["dense_equivalent_bytes"]:
        failures.append(
            "256x per-service memory is within 20x of the dense layout — "
            "per-service storage has regressed to O(hosts x services)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_fleet.json", help="output path")
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

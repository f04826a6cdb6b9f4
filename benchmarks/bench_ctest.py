"""CTest round-engine micro-benchmark: per-round loop oracle vs batched engine.

Times one full ``ctest_batch`` window — pressure start, all observation
rounds, pressure stop, verdicts — over synthetic fleets at
1x/4x/16x/64x/256x of an 800-instance campaign wave with the paper's
60-round test window, comparing the per-round loop (one probe round-trip
per instance per round; the reference kept in ``tests/oracles/ctest.py``)
against the batch-wide ``window_hits`` engine (one call per batch, in
array passes of at most ``PASS_DRAWS`` draws) that ``RngCovertChannel``
always runs.

The two are byte-identical by contract (see the identity suites in
``tests/unit/test_ctest_vectorized.py`` and ``tests/scale``); this
benchmark checks the point of the engine — that it actually is fast —
and re-asserts verdict equality up to 16x as a sanity belt.  The loop is
timed once (not best-of-3) at 64x and skipped at 256x (a ~200k-instance
wave), where the tier reports the engine alone.

Run::

    PYTHONPATH=src python benchmarks/bench_ctest.py --out BENCH_ctest.json

Exit status is non-zero if the batched engine is less than 5x faster
than the loop at 16x or 64x scale, or regresses at 1x.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cloud.api import InstanceHandle
from repro.core.covert import RngCovertChannel
from repro.fleet import InstanceStore
from repro.hardware.cpu import cpu_catalog
from repro.hardware.host import PhysicalHost
from repro.hardware.tsc import TimestampCounter
from repro.sandbox.gvisor import GVisorSandbox
from repro.simtime.clock import SimClock

# The loop baseline is the test-suite oracle, imported from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles.ctest import LoopRngCovertChannel  # noqa: E402

PAPER_WAVE_INSTANCES = 800  # one campaign wave's worth of CTest subjects
SCALES = {"1x": 1, "4x": 4, "16x": 16, "64x": 64, "256x": 256}

INSTANCES_PER_HOST = 8
GROUP_SIZE = 5
THRESHOLD_M = 3
TOTAL_ROUNDS = 60
REPEATS = 3
FAST_REPEAT_MAX_FACTOR = 16  # best-of-3 below, single timing above
IDENTITY_MAX_FACTOR = 16  # beyond this, tests/scale owns the identity proof
LOOP_BASELINE_MAX_FACTOR = 64  # the scalar loop is minutes-slow at 256x


def build_groups(n_instances: int, seed: int) -> list[list[InstanceHandle]]:
    """A synthetic placed fleet: real hosts and handles on an instance
    store, built directly (no orchestrator) so the benchmark times only
    the engines.  Sandboxes boot on the engine's first probe.

    Sequential slicing into fixed-size groups deliberately straddles host
    boundaries, so each batch mixes fully co-located groups with split
    ones — both verdict outcomes stay exercised.
    """
    clock = SimClock()
    cpu = cpu_catalog()[0]
    n_hosts = -(-n_instances // INSTANCES_PER_HOST)
    hosts = [
        PhysicalHost(
            host_id=f"bench-{host_index:05d}",
            cpu=cpu,
            tsc=TimestampCounter(
                boot_time=0.0,
                actual_frequency_hz=cpu.reported_tsc_frequency_hz,
            ),
        )
        for host_index in range(n_hosts)
    ]
    store = InstanceStore(clock, hosts)
    serials = np.arange(n_instances)
    instances = store.launch(
        store.service_index("bench"),
        serials // INSTANCES_PER_HOST,
        [f"i{serial:06d}" for serial in range(n_instances)],
        seed * 1_000_003 + serials,
        clock.now(),
        clock.now(),
        GVisorSandbox,
    )
    handles = [InstanceHandle(instance) for instance in instances]
    return [
        handles[i : i + GROUP_SIZE] for i in range(0, len(handles), GROUP_SIZE)
    ]


def run_engine(vectorized: bool, n_instances: int, seed: int = 0):
    groups = build_groups(n_instances, seed)
    cls = RngCovertChannel if vectorized else LoopRngCovertChannel
    channel = cls(total_rounds=TOTAL_ROUNDS)
    results = channel.ctest_batch(groups, THRESHOLD_M)
    return [result.positive for result in results]


def best_of(vectorized: bool, n_instances: int, repeats: int = REPEATS) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_engine(vectorized, n_instances)
        timings.append(time.perf_counter() - start)
    return min(timings)


def run() -> dict:
    results: dict = {
        "paper_wave_instances": PAPER_WAVE_INSTANCES,
        "workload": {
            "instances_per_host": INSTANCES_PER_HOST,
            "group_size": GROUP_SIZE,
            "threshold_m": THRESHOLD_M,
            "total_rounds": TOTAL_ROUNDS,
        },
        "scales": {},
    }
    for label, factor in SCALES.items():
        n_instances = PAPER_WAVE_INSTANCES * factor
        repeats = REPEATS if factor <= FAST_REPEAT_MAX_FACTOR else 1
        if factor <= IDENTITY_MAX_FACTOR:
            if run_engine(False, n_instances) != run_engine(True, n_instances):
                raise AssertionError(
                    f"engine verdicts diverged at {label} — identity broken"
                )
        vector_t = best_of(True, n_instances, repeats)
        scale = {
            "n_instances": n_instances,
            "repeats": repeats,
            "vectorized_s": round(vector_t, 6),
        }
        if factor <= LOOP_BASELINE_MAX_FACTOR:
            loop_t = best_of(False, n_instances, repeats)
            scale["loop_s"] = round(loop_t, 6)
            scale["speedup"] = round(loop_t / vector_t, 3)
            summary = (
                f"loop {loop_t:.3f}s, vectorized {vector_t:.3f}s, "
                f"{scale['speedup']}x"
            )
        else:
            summary = f"vectorized {vector_t:.3f}s (loop baseline skipped)"
        results["scales"][label] = scale
        print(
            f"{label:>4} ({n_instances} instances, {TOTAL_ROUNDS} rounds): "
            + summary
        )
    return results


def check(results: dict) -> list[str]:
    failures = []
    for label in ("16x", "64x"):
        speedup = results["scales"][label]["speedup"]
        if speedup < 5.0:
            failures.append(
                f"{label} vectorized speedup {speedup}x is below the 5x floor"
            )
    at_1x = results["scales"]["1x"]["speedup"]
    if at_1x < 1.0:
        failures.append(f"vectorized engine regresses at 1x scale ({at_1x}x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_ctest.json", help="output path")
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

"""End-to-end figure benchmark: fresh-process figure runs, timed and checked.

Run from the repository root::

    # one timed run of one workload; the last stdout line is a JSON result
    python3 benchmarks/e2e/bench_e2e.py --workload coverage --seed 0 --seconds 30 --trace 0

    # a full set: every workload R times round-robin, then one traced run each
    python3 benchmarks/e2e/bench_e2e.py [--seed N] [--repeats R] [--out PATH] [--check]

    # compare the last sets of two result files against the bounds
    python3 benchmarks/e2e/bench_e2e.py --compare OLD.json NEW.json [--check]

Every sample is a fresh interpreter that imports the package, builds the
workload's configuration and calls one public experiment driver once,
serially (``RunnerConfig()``: no workers, no cell cache), with a fresh
``REPRO_CACHE_DIR``.  This is a closed loop with one client.  Workloads,
metric names, units and bounds come from ``BENCHMARK.json`` at the
repository root; ``README.md`` next to this file defines each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = HERE / "digests.json"
#: Per-sample scratch space (fresh cache and temp dirs), inside the checkout.
SCRATCH = ROOT / ".bench_build" / "e2e"
#: A sample takes a few seconds; this only stops a hung one.
CHILD_TIMEOUT_S = 120.0
#: ``--check`` fails when layers explain less of the traced wall than this.
MIN_ATTRIBUTED_FRAC = 0.9
#: The seed whose result digests are committed in ``digests.json``.
BLESSED_SEED = 0


# ----------------------------------------------------------------------
# One sample (runs in the spawned interpreter)
# ----------------------------------------------------------------------
def child(name: str, seed: int, trace: bool, spawned_at: float) -> None:
    """Run one workload once and print its record as one JSON line."""
    import resource

    from e2e_layers import LayerTracer, installed
    from e2e_workloads import WORKLOADS, result_digest
    from repro.errors import CellExecutionError

    workload = WORKLOADS[name]
    run, runner = workload.prepare(seed)
    tracer = LayerTracer() if trace else None
    with installed(tracer) if tracer else contextlib.nullcontext():
        start = time.monotonic()
        try:
            result = run()
        except CellExecutionError:
            result = None  # the failed cells are on runner.stats
        wall_s = time.monotonic() - start

    stats = runner.stats
    record = {
        "setup_s": start - spawned_at,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cells": stats.cells,
        "failed_cells": stats.cell_errors,
        "digest": None,
        "problems": [],
        "paper_err": None,
        "paper_err_unit": workload.paper_err_unit,
    }
    if result is not None:
        record["digest"] = result_digest(result)
        record["problems"] = workload.check(result)
        if workload.paper_err is not None:
            record["paper_err"] = workload.paper_err(result)
    if tracer is not None:
        layers = tracer.metrics(wall_s)
        counters = runner.fault_plan.counters if runner.fault_plan else None
        layers["faults.injections"] = counters.total_injected if counters else 0
        layers["faults.retries"] = stats.cell_retries + (
            counters.launch_retries if counters else 0
        )
        layers["runner.overhead_s"] = stats.wall_seconds - stats.computed_seconds
        record["layers"] = layers
    print(json.dumps(record))


# ----------------------------------------------------------------------
# Spawning and judging samples (the parent process)
# ----------------------------------------------------------------------
def spawn(name: str, seed: int, trace: bool) -> dict | None:
    """One sample in a fresh interpreter; ``None`` if it crashed or hung."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
        )
        env["REPRO_CACHE_DIR"] = env["TMPDIR"] = tmp
        argv = [
            sys.executable, str(HERE / "bench_e2e.py"), "--child", name,
            "--seed", str(seed), "--trace", str(int(trace)),
        ]
        try:
            proc = subprocess.run(
                # CLOCK_MONOTONIC is system-wide, so the child can subtract it.
                argv + ["--spawned-at", repr(time.monotonic())],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"[e2e] {name}: sample timed out", file=sys.stderr)
            return None
    if proc.returncode != 0:
        print(f"[e2e] {name}: sample exited {proc.returncode}", file=sys.stderr)
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def judge(name: str, seed: int, records: list[dict | None]) -> dict:
    """Count attempted and failed cells; check digests and outputs.

    A cell fails when it raises, and every cell of a sample fails when the
    sample crashed, its output checks found a problem, or its result
    digest differs from the reference: the committed digest for the
    blessed seed, else the first digest of the set (so every sample of
    a set, traced or not, must agree).
    """
    if seed == BLESSED_SEED:
        reference = json.loads(DIGESTS_PATH.read_text())[name]
    else:
        reference = next((r["digest"] for r in records if r and r["digest"]), None)
    attempted = failed = 0
    notes: list[str] = []
    for index, record in enumerate(records):
        if record is None:
            attempted += 1
            failed += 1
            notes.append(f"sample {index}: crashed")
            continue
        attempted += record["cells"]
        bad_digest = record["digest"] is None or record["digest"] != reference
        if bad_digest or record["problems"]:
            failed += record["cells"]
            notes.extend(f"sample {index}: {p}" for p in record["problems"])
            if bad_digest:
                notes.append(
                    f"sample {index}: digest {record['digest']} != {reference}"
                )
        else:
            failed += record["failed_cells"]
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": reference,
        "notes": notes,
    }


def summarize(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of samples."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def paper_err(records: list[dict]) -> str:
    """Median error vs the paper, with its unit (``n/a`` without a reference)."""
    errs = [r["paper_err"] for r in records if r["paper_err"] is not None]
    if not errs:
        return "n/a"
    return f"{statistics.median(errs):.4g} {records[0]['paper_err_unit']}"


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Median per-layer metrics over traced samples, plus tracing overhead."""
    names = traced[0]["layers"]
    out = {m: statistics.median(r["layers"][m] for r in traced) for m in names}
    out["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced)
        - 1.0
    )
    return out


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def timed_run(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    """Samples of one workload for ``seconds``; print the driver's result.

    A sample starts only if it is expected to end within ``seconds`` (by
    the previous sample's length), after a minimum of one sample, or of
    one untraced and one traced sample with ``trace``.  Traced runs
    alternate untraced and traced samples, which measures the tracing
    overhead and checks that tracing leaves the result digest unchanged.
    """
    start = time.monotonic()
    samples: list[tuple[bool, dict | None]] = []
    while True:
        traced = trace and len(samples) % 2 == 1
        began = time.monotonic()
        samples.append((traced, spawn(name, seed, traced)))
        took = time.monotonic() - began
        enough = len(samples) >= (2 if trace else 1)
        if enough and time.monotonic() - start + took > seconds:
            break

    verdict = judge(name, seed, [record for _, record in samples])
    untraced = [r for t, r in samples if r is not None and not t]
    traced_records = [r for t, r in samples if r is not None and t]
    if not untraced or (trace and not traced_records):
        print(f"[e2e] {name}: no sample finished", file=sys.stderr)
        return 1
    quartiles: dict[str, dict] = {}
    if trace:
        values = layer_metrics(untraced, traced_records)
        declared = spec["per_layer"]
        population = traced_records
    else:
        declared = spec["end_to_end"]
        population = untraced
        quartiles = {m["name"]: summarize([r[m["name"]] for r in untraced])
                     for m in declared}
        values = {metric: s["median"] for metric, s in quartiles.items()}
    for note in verdict["notes"]:
        print(f"[e2e] {name}: {note}")
    print(f"{name}: seed {seed}, {len(population)} samples, digest "
          f"{verdict['digest']}, paper_err {paper_err(population)}")
    for metric in declared:
        line = f"  {metric['name']:<48} {values[metric['name']]:>14.6g} {metric['unit']}"
        if metric["name"] in quartiles:
            s = quartiles[metric["name"]]
            line += f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]"
        print(line)
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


def environment() -> dict:
    """What the timings depend on besides the code."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def full_set(spec: dict, seed: int, repeats: int) -> dict:
    """Every workload ``repeats`` times round-robin, then one traced run each."""
    names = [w["name"] for w in spec["workloads"]]
    samples: dict[str, list[tuple[bool, dict | None]]] = {n: [] for n in names}
    for index in range(repeats):
        for name in names:
            record = spawn(name, seed, trace=False)
            samples[name].append((False, record))
            wall = f"{record['wall_s']:.2f} s" if record else "failed"
            print(f"[e2e] {name} run {index + 1}/{repeats}: {wall}", file=sys.stderr)
    for name in names:
        samples[name].append((True, spawn(name, seed, trace=True)))
        print(f"[e2e] {name} traced run done", file=sys.stderr)

    workloads = {}
    for name in names:
        verdict = judge(name, seed, [record for _, record in samples[name]])
        untraced = [r for t, r in samples[name] if r is not None and not t]
        traced = [r for t, r in samples[name] if r is not None and t]
        workloads[name] = {
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "error_rate": verdict["failed"] / verdict["attempted"],
            "digest": verdict["digest"],
            "notes": verdict["notes"],
            "paper_err": paper_err(untraced),
            "metrics": {
                m["name"]: {**summarize([r[m["name"]] for r in untraced]),
                            "unit": m["unit"]}
                for m in spec["end_to_end"]
            } if untraced else {},
            "layers": layer_metrics(untraced, traced) if untraced and traced else {},
        }
    return {
        "environment": environment(),
        "seed": seed,
        "repeats": repeats,
        "workloads": workloads,
    }


def print_set(spec: dict, result: dict) -> None:
    print(f"seed {result['seed']}, R = {result['repeats']} untraced runs per "
          "workload, median [q1, q3]")
    for name, w in result["workloads"].items():
        print(f"{name}: error_rate {w['error_rate']:.3g} "
              f"({w['failed']}/{w['attempted']} cells), paper_err {w['paper_err']}")
        for note in w["notes"]:
            print(f"  ! {note}")
        for m in spec["end_to_end"]:
            s = w["metrics"].get(m["name"])
            if s:
                print(f"  {m['name']:<12} {s['median']:>10.4f} "
                      f"[{s['q1']:.4f}, {s['q3']:.4f}] {m['unit']}")
        layers = w["layers"]
        if layers:
            shares = ", ".join(
                f"{layer[:-len('.share')]} {100 * value:.1f}%"
                for layer, value in sorted(
                    layers.items(), key=lambda item: -item[1]
                )
                if layer.endswith(".share") and value >= 0.005
            )
            print(f"  traced: attributed {100 * layers['trace.attributed_frac']:.1f}%, "
                  f"overhead {100 * layers['trace.overhead_frac']:+.1f}%; {shares}")


def check_set(result: dict) -> list[str]:
    """What ``--check`` fails on: failed cells or digests, unattributed wall."""
    failures = []
    for name, w in result["workloads"].items():
        if w["failed"]:
            failures.append(f"{name}: error_rate {w['error_rate']:.3g}")
        attributed = w["layers"].get("trace.attributed_frac")
        if attributed is None or attributed < MIN_ATTRIBUTED_FRAC:
            failures.append(f"{name}: trace.attributed_frac {attributed}")
    return failures


def compare(spec: dict, old_path: str, new_path: str) -> list[str]:
    """Print each metric's change between the files' last sets; list regressions."""
    old = json.loads(Path(old_path).read_text())["sets"][-1]["workloads"]
    new = json.loads(Path(new_path).read_text())["sets"][-1]["workloads"]
    regressions = []
    for name in [n for n in new if n in old]:
        for m in spec["end_to_end"]:
            before = old[name]["metrics"][m["name"]]["median"]
            after = new[name]["metrics"][m["name"]]["median"]
            change = after / before - 1.0
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > m["bound"] else "ok"
            print(f"{name:<11} {m['name']:<12} {before:>10.4f} -> {after:>10.4f} "
                  f"{m['unit']:<3} {100 * change:+6.1f}% "
                  f"(bound {100 * m['bound']:.0f}%) {verdict}")
            if verdict != "ok":
                regressions.append(f"{name} {m['name']}")
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="time one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0,
                        help="moves every base_seed by 1000*N, the fault seed by N")
    parser.add_argument("--seconds", type=float,
                        help="length of a --workload run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics")
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced runs per workload in a full set")
    parser.add_argument("--out", help="append the full set to this JSON history")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare the last sets of two --out files")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on failed cells or digests, unattributed "
                             "traced wall, or (with --compare) a regression")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Exit through SystemExit so a running sample is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.child:
        child(args.child, args.seed, bool(args.trace), args.spawned_at)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"[e2e] no package source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]

    if args.compare:
        regressions = compare(spec, *args.compare)
        return 1 if args.check and regressions else 0
    if args.workload:
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        if args.out or args.check:
            parser.error("--out and --check apply to a full set")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        return timed_run(spec, args.workload, args.seed, seconds, bool(args.trace))
    if args.seconds is not None or args.trace:
        parser.error("--seconds and --trace apply to a --workload run")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    result = full_set(spec, args.seed, args.repeats)
    print_set(spec, result)
    if args.out:
        out = Path(args.out)
        history = json.loads(out.read_text()) if out.exists() else {"sets": []}
        history["sets"].append(result)
        out.write_text(json.dumps(history, indent=1) + "\n")
    failures = check_set(result)
    for failure in failures:
        print(f"[e2e] check failed: {failure}", file=sys.stderr)
    return 1 if args.check and failures else 0


if __name__ == "__main__":
    sys.exit(main())

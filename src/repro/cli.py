"""Command-line interface: regenerate paper experiments from a shell.

Examples::

    python -m repro list
    python -m repro run exp1
    python -m repro run fig9 --scale full
    python -m repro run all --scale quick
    python -m repro run fig4 --scale full --jobs 4
    python -m repro run fig12 --no-cache
    python -m repro run exp1 --faults "launch=0.1,cell=0.3,seed=7" --max-retries 3

Completed simulation cells are cached under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro-runner``), so re-running a command reuses them; ``--jobs N``
fans the remaining cells out over N worker processes.

Within one run, cells that share a simulated world (same region, seed,
platform, background traffic) build it once and fork warm snapshots of it
(:mod:`repro.runner.worldcache`) — byte-identical to fresh builds.
``--no-world-cache`` (or ``$REPRO_WORLD_CACHE_SIZE=0``) turns that off.

``--faults SPEC`` runs the experiment under a seeded deterministic fault
schedule (launch errors/slow launches, CTest noise and mid-test deaths,
cell failures — see :mod:`repro.faults`); ``--max-retries`` bounds the
per-cell retry budget.  Fault-injected runs never touch the cell cache.
``--faults`` and ``--platform`` reach a simulation only through runner
cells, so they exit 2 for experiments whose driver takes no runner — and
therefore for ``run all``, which includes such experiments.

``--trace PATH`` records the run's telemetry spans (simulated-time phase
tree: launches, CTest rounds, verification waves, campaign phases) to a
deterministic JSONL file — byte-identical across reruns, ``--jobs``
counts, and hash seeds.  ``--metrics`` prints the collected counters,
gauges, and timing histograms after each report.  Both flags may be given
before or after the subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Sequence

from repro.cloud.platform import platform_profile
from repro.errors import CloudError, FaultSpecError
from repro.experiments.registry import EXPERIMENTS, get_spec, run_experiment
from repro.faults import FaultPlan
from repro.runner import RunnerConfig
from repro.telemetry import (
    Telemetry,
    format_metrics,
    telemetry_context,
    write_jsonl,
)


def _add_telemetry_flags(
    parser: argparse.ArgumentParser, top_level: bool
) -> None:
    """Add ``--trace`` / ``--metrics`` to one parser.

    The flags live on the top-level parser *and* the ``run`` subparser so
    both ``repro --trace t.jsonl run exp1`` and ``repro run exp1 --trace
    t.jsonl`` work.  The subparser copies use ``argparse.SUPPRESS``
    defaults: a subparser's defaults would otherwise overwrite values
    already parsed at the top level.
    """
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None if top_level else argparse.SUPPRESS,
        help="write a deterministic JSONL span trace of the run to PATH",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        default=False if top_level else argparse.SUPPRESS,
        help="print collected telemetry counters and histograms",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Everywhere All at Once: Co-Location Attacks "
            "on Public Cloud FaaS' (ASPLOS 2024) on a simulated substrate."
        ),
    )
    _add_telemetry_flags(parser, top_level=True)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    _add_telemetry_flags(run, top_level=False)
    run.add_argument(
        "experiment",
        help="experiment id from 'repro list', or 'all'",
    )
    run.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="quick: reduced repetitions (seconds); full: benchmark scale",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="run simulation cells in N worker processes (0 = serial in-process)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell instead of reading the cell cache "
        "(fresh results are still written back)",
    )
    run.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject deterministic platform faults, e.g. "
        "'launch=0.1,slow=0.05,ctest=0.02,death=0.01,cell=0.3,seed=7' "
        "(disables the cell cache for the run)",
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry budget for failed cells (default 1)",
    )
    run.add_argument(
        "--platform",
        metavar="NAME",
        default=None,
        help="run under a platform profile ('default', 'aws_lambda_like', "
        "'azure_functions_like'); the profile joins the cell cache key, "
        "so platform runs are cached separately from baseline runs",
    )
    run.add_argument(
        "--no-world-cache",
        action="store_true",
        help="build every cell's simulated world fresh instead of forking "
        "warm-world snapshots (see repro.runner.worldcache)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        width = max(len(eid) for eid in EXPERIMENTS)
        for eid, spec in sorted(EXPERIMENTS.items()):
            print(f"{eid:<{width}}  {spec.description}")
        return 0

    if args.command == "run":
        if args.jobs < 0:
            print("--jobs must be >= 0", file=sys.stderr)
            return 2
        if args.max_retries is not None and args.max_retries < 0:
            print("--max-retries must be >= 0", file=sys.stderr)
            return 2
        fault_plan = None
        if args.faults:
            try:
                fault_plan = FaultPlan.from_spec(args.faults)
            except FaultSpecError as error:
                print(f"--faults: {error}", file=sys.stderr)
                return 2
        platform = None
        if args.platform is not None and args.platform != "default":
            try:
                platform = platform_profile(args.platform)
            except CloudError as error:
                print(f"--platform: {error}", file=sys.stderr)
                return 2
        ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        try:
            specs = [get_spec(eid) for eid in ids]
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        # Fault plans and platform profiles reach a simulation only through
        # the runner's cells; a driver without a runner would ignore them.
        cellless = [spec.id for spec in specs if not spec.takes_runner]
        for flag, value in (("--faults", fault_plan), ("--platform", platform)):
            if value is not None and cellless:
                print(
                    f"{flag} has no effect on experiments without runner "
                    f"cells: {', '.join(cellless)}",
                    file=sys.stderr,
                )
                return 2
        telemetry = Telemetry() if (args.trace or args.metrics) else None
        scope = (
            telemetry_context(telemetry)
            if telemetry is not None
            else contextlib.nullcontext()
        )
        with scope:
            for eid in ids:
                runner = RunnerConfig.from_cli(
                    jobs=args.jobs,
                    no_cache=args.no_cache,
                    fault_plan=fault_plan,
                    max_retries=args.max_retries,
                    platform=platform,
                    world_cache=not args.no_world_cache,
                )
                print(run_experiment(eid, scale=args.scale, runner=runner))
                if fault_plan is not None:
                    # Counters are parent-side: exhaustive with --jobs 0; with
                    # workers, injections inside cells stay in the workers and
                    # the [runner] retry/error counters tell the story.  (The
                    # telemetry mirrors — see --metrics — *are* exhaustive:
                    # each cell's counters merge back into the parent.)
                    print(
                        f"[faults] spec '{args.faults}': "
                        f"{fault_plan.counters.summary()}"
                    )
                print()
        if telemetry is not None:
            if args.trace:
                write_jsonl(telemetry, args.trace)
                print(f"[trace] {len(telemetry.records())} spans -> {args.trace}")
            if args.metrics:
                print("[metrics]")
                print(format_metrics(telemetry.metrics))
        return 0

    return 2  # pragma: no cover - argparse enforces valid commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

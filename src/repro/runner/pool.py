"""Fan experiment cells out across worker processes, with cell caching.

:func:`run_cells` is the shared entry point every multi-cell experiment
driver routes through.  The default (``parallelism=0``) executes cells
serially in-process — exactly the behavior the drivers had before the
runner existed, preserving determinism and debuggability (breakpoints,
tracebacks, profilers all see one process).  With ``parallelism=N`` the
uncached cells are submitted to a ``ProcessPoolExecutor`` of ``N`` workers;
because every cell derives all randomness from its own seed, pooled and
serial runs produce byte-identical results.

Failure discipline: a raising cell never takes its siblings down.  Each
cell's exception is captured as a structured :class:`CellResult` error,
completed cells are written to the cache *as they finish* (not in a batch
at the end), failed cells are retried up to ``RunnerConfig.max_retries``
times, and only then does the run either raise a
:class:`~repro.errors.CellExecutionError` naming the failed cells
(default) or — with ``isolate_errors=True`` — return the error results
in-line for the caller to triage.

An attached :class:`~repro.faults.FaultPlan` injects deterministic cell
failures (and, through the ambient fault context, launch/CTest faults
inside the cell's own simulation).  Fault-injected runs bypass the cache
entirely: their values are not clean results and must never collide with
a fault-free run's cache keys.  Platform-profile runs, by contrast, *are*
cached — the profile's canonical form joins the cell cache key
(:func:`~repro.runner.cellspec.cache_key`), so ``--platform`` values are
content-addressed apart from baseline entries.

Cells that declare an :class:`~repro.runner.worldcache.EnvSpec` execute
with the process's warm-world cache armed: their ``default_env`` call
checkpoints the built world once and forks it for every later cell that
declares the same one (:mod:`repro.runner.worldcache`).  Demand is
counted in spec order over the pending cells, so a world no later cell
declares is never captured, and its last fork releases the snapshot.
Workers persist across a pool's cells, so each worker's LRU warms once
per distinct world, not once per cell.

Per-cell timing, cache-hit, retry, and error counters accumulate on the
:class:`RunnerConfig`'s :class:`RunStats`, so callers (the CLI, the
benchmark harness) can report the achieved speedup and observed faults.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.cloud.platform import PlatformProfile, platform_context
from repro.errors import CellExecutionError
from repro.faults import FaultPlan, fault_context
from repro.runner.cache import CellCache
from repro.runner.cellspec import CellResult, CellSpec
from repro.runner.worldcache import process_world_cache, world_cache_context
from repro.telemetry import MetricSet, Telemetry, current_telemetry, telemetry_context


def _counter(name: str, kind: type) -> property:
    """A :class:`RunStats` attribute backed by the ``name`` counter."""
    return property(
        lambda self: kind(self.metrics.counters.get(name, 0)),
        lambda self, value: self.metrics.counters.__setitem__(name, value),
    )


#: ``RunStats`` world counters and the ``worldcache.*`` deltas they sum.
_WORLD_COUNTERS = {
    "world_hits": "worldcache.hits",
    "world_misses": "worldcache.misses",
    "world_evictions": "worldcache.evictions",
    "world_snapshots": "worldcache.snapshots",
    "world_snapshot_bytes": "worldcache.snapshot_bytes",
    "world_fork_seconds": "worldcache.fork_seconds",
    "world_build_seconds": "worldcache.build_seconds",
}


class RunStats:
    """Aggregated counters for one runner's cell executions.

    Backed by a telemetry :class:`~repro.telemetry.MetricSet` rather than
    plain fields, so per-call deltas are available via
    :meth:`snapshot` / :meth:`since` and repeated ``run_cells`` calls on
    one config accumulate without double-counting.
    """

    _COUNTERS = (
        "cells",
        "cache_hits",
        "cell_retries",
        "cell_errors",
        "computed_seconds",
        "saved_seconds",
        "wall_seconds",
        *_WORLD_COUNTERS,
    )

    def __init__(self, **values: float) -> None:
        self.metrics = MetricSet()
        for name, value in values.items():
            if name not in (*self._COUNTERS, "parallelism"):
                raise TypeError(f"RunStats has no counter {name!r}")
            setattr(self, name, value)

    cells = _counter("cells", int)
    cache_hits = _counter("cache_hits", int)
    cell_retries = _counter("cell_retries", int)
    cell_errors = _counter("cell_errors", int)
    computed_seconds = _counter("computed_seconds", float)
    saved_seconds = _counter("saved_seconds", float)
    wall_seconds = _counter("wall_seconds", float)
    world_hits = _counter("world_hits", int)
    world_misses = _counter("world_misses", int)
    world_evictions = _counter("world_evictions", int)
    world_snapshots = _counter("world_snapshots", int)
    world_snapshot_bytes = _counter("world_snapshot_bytes", int)
    world_fork_seconds = _counter("world_fork_seconds", float)
    world_build_seconds = _counter("world_build_seconds", float)

    @property
    def parallelism(self) -> int:
        return int(self.metrics.gauges.get("parallelism", 0))

    @parallelism.setter
    def parallelism(self, value: int) -> None:
        self.metrics.gauge("parallelism", value)

    def snapshot(self) -> dict[str, float]:
        """Freeze current counter totals (pair with :meth:`since`)."""
        return self.metrics.snapshot()

    def since(self, before: dict[str, float]) -> dict[str, float]:
        """Counter growth since a :meth:`snapshot` (one run's deltas)."""
        return self.metrics.since(before)

    @property
    def hit_rate(self) -> float:
        """Fraction of cells restored from the cache."""
        return self.cache_hits / self.cells if self.cells else 0.0

    def summary(self) -> str:
        """One-line human-readable report of the counters."""
        text = (
            f"{self.cells} cells, {self.cache_hits} cache hits "
            f"({100.0 * self.hit_rate:.0f}%), computed "
            f"{self.computed_seconds:.1f}s, saved ~{self.saved_seconds:.1f}s, "
            f"wall {self.wall_seconds:.1f}s, jobs {self.parallelism}"
        )
        if self.cell_errors or self.cell_retries:
            text += (
                f", {self.cell_errors} cell errors, "
                f"{self.cell_retries} cell retries"
            )
        if self.world_hits or self.world_misses:
            text += (
                f", worldcache {self.world_hits} forks/"
                f"{self.world_misses} builds/"
                f"{self.world_evictions} evictions, "
                f"{self.world_snapshots} snapshots "
                f"{self.world_snapshot_bytes / 2**20:.2f}MB "
                f"(fork {self.world_fork_seconds:.1f}s, "
                f"build {self.world_build_seconds:.1f}s)"
            )
        return text


@dataclass
class RunnerConfig:
    """How an experiment's cells should be executed.

    The default is the conservative library behavior: serial, in-process,
    no cache — indistinguishable from calling the cell functions directly.
    The CLI and benchmark harness opt into workers and caching explicitly.

    Attributes
    ----------
    parallelism:
        0 runs cells serially in-process; ``N >= 1`` fans uncached cells
        out to ``N`` worker processes.
    cache_read:
        Restore completed cells from the on-disk cache.
    cache_write:
        Store newly computed cells.  ``--no-cache`` maps to
        ``cache_read=False, cache_write=True``: bypass reads, still write.
    cache_dir:
        Cache location override (default: ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro-runner``).
    fault_plan:
        Optional deterministic fault schedule (``--faults`` on the CLI):
        injects cell failures and is activated as the ambient plan around
        each cell execution.  An *enabled* plan disables the cache for
        the run — faulted values must never poison clean cache entries.
    max_retries:
        How many times a failed cell is re-executed before its error is
        kept (0 disables retrying).  The fault plan keys its decision on
        the attempt number, so retries deterministically escape injected
        transients.
    isolate_errors:
        When True, cells that still fail after retries are returned as
        structured error results; when False (default), ``run_cells``
        raises :class:`~repro.errors.CellExecutionError` naming them —
        after every completed sibling has been computed and cached.
    platform:
        Optional :class:`~repro.cloud.platform.PlatformProfile`
        (``--platform`` on the CLI), activated as the ambient profile
        around each cell execution — carried explicitly, like the fault
        plan, because contextvars do not survive into pool workers.  The
        profile's canonical form joins every cell cache key, so platform
        runs share the cache with baseline runs without colliding.
    world_cache:
        Arm the per-process warm-world cache around cells that declare
        an :class:`~repro.runner.worldcache.EnvSpec` (default).  False —
        ``--no-world-cache`` on the CLI — builds every cell's world
        fresh; ``$REPRO_WORLD_CACHE_SIZE=0`` disables it process-wide.
    stats:
        Mutable accumulator shared across every ``run_cells`` call made
        with this config.
    """

    parallelism: int = 0
    cache_read: bool = False
    cache_write: bool = False
    cache_dir: str | Path | None = None
    fault_plan: FaultPlan | None = None
    max_retries: int = 1
    isolate_errors: bool = False
    platform: PlatformProfile | None = None
    world_cache: bool = True
    stats: RunStats = field(default_factory=RunStats)

    @classmethod
    def from_cli(
        cls, jobs: int = 0, no_cache: bool = False,
        cache_dir: str | Path | None = None,
        fault_plan: FaultPlan | None = None,
        max_retries: int | None = None,
        platform: PlatformProfile | None = None,
        world_cache: bool = True,
    ) -> "RunnerConfig":
        """The CLI mapping: caching on by default, ``--no-cache`` skips reads."""
        return cls(
            parallelism=jobs,
            cache_read=not no_cache,
            cache_write=True,
            cache_dir=cache_dir,
            fault_plan=fault_plan,
            max_retries=max_retries if max_retries is not None else 1,
            platform=platform,
            world_cache=world_cache,
        )


def _execute_cell(
    spec: CellSpec,
    fault_plan: FaultPlan | None = None,
    attempt: int = 0,
    collect_trace: bool = False,
    platform: PlatformProfile | None = None,
    world_cache: bool = True,
    later_uses: int | None = None,
) -> CellResult:
    """Run one cell and time it (top-level so worker processes can load it).

    Exceptions from the cell function are captured into the result's
    ``error`` field rather than propagated, so one bad cell cannot abort
    a whole pooled run.  The fault plan (if any) is consulted for an
    injected failure and activated as the ambient plan so the cell's own
    simulation picks up launch/CTest faults.  A platform profile (if any)
    is likewise activated as the ambient profile, so ``default_env`` calls
    inside the cell inherit it.

    A cell that declares an :class:`~repro.runner.worldcache.EnvSpec`
    additionally runs with the process's warm-world cache armed (unless
    ``world_cache`` is off), and the cache's counter deltas travel back
    on the result's ``world``.  ``later_uses`` — how many later cells of
    the run declare the same world — is the cache's demand for it: the
    world is captured only when it is positive and released at zero.

    With ``collect_trace`` the cell runs under a *fresh* child
    :class:`~repro.telemetry.Telemetry` — in the parent process and in
    workers alike — and the captured spans/metrics travel back on the
    result's ``trace``.  Uniform capture is what makes serial and pooled
    traces byte-identical: spans never interleave with sibling cells.
    """
    start = time.perf_counter()
    value, error = None, None
    child = Telemetry() if collect_trace else None
    scope = (
        telemetry_context(child) if child is not None else contextlib.nullcontext()
    )
    worlds = (
        process_world_cache() if (world_cache and spec.env is not None) else None
    )
    world_before = worlds.stats_snapshot() if worlds is not None else None
    world_scope = (
        world_cache_context(worlds, later_uses)
        if worlds is not None
        else contextlib.nullcontext()
    )
    try:
        with scope, world_scope:
            if fault_plan is not None and fault_plan.cell_fails(spec.key(), attempt):
                raise CellExecutionError(
                    f"injected fault (attempt {attempt})"
                )
            with fault_context(fault_plan), platform_context(platform):
                value = spec.fn(spec.config, spec.seed)
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        error = f"{spec.label or spec.experiment}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    world = worlds.stats_since(world_before) if worlds is not None else None
    return CellResult(
        experiment=spec.experiment,
        seed=spec.seed,
        label=spec.label,
        key=spec.key(
            platform=platform,
            faults=(
                fault_plan.spec
                if fault_plan is not None and fault_plan.enabled
                else None
            ),
        ),
        value=value,
        elapsed_s=elapsed,
        error=error,
        trace=child.snapshot_trace() if child is not None else None,
        world=world or None,
    )


def _later_uses(specs: Sequence[CellSpec]) -> list[int]:
    """Per cell, how many later cells declare an equal world (0 without one)."""
    worlds = [
        spec.env.content_hash() if spec.env is not None else None
        for spec in specs
    ]
    remaining = Counter(worlds)
    later = []
    for world in worlds:
        remaining[world] -= 1
        later.append(remaining[world] if world is not None else 0)
    return later


def run_cells(
    specs: Sequence[CellSpec], runner: RunnerConfig | None = None
) -> list[CellResult]:
    """Execute every cell, reusing cached results, in spec order.

    Cache reads and writes happen in the parent process only, so worker
    processes never contend on the cache directory; writes happen as each
    cell completes, so siblings of a failing cell are never lost.
    """
    if runner is None:
        runner = RunnerConfig()
    specs = list(specs)
    wall_start = time.perf_counter()
    stats = runner.stats
    plan = runner.fault_plan
    faulted = plan is not None and plan.enabled
    platform = runner.platform
    telemetry = current_telemetry()
    collect = telemetry.enabled
    # Fault-injected values are resilience-drill output, not clean
    # results: never read them from or write them to the shared cache.
    # Platform-shaped values, by contrast, are cached — the profile's
    # canonical form joins the key below, so they are content-addressed
    # apart from baseline entries instead of colliding with them.
    cache = (
        CellCache(runner.cache_dir)
        if (not faulted and (runner.cache_read or runner.cache_write))
        else None
    )
    fault_key = plan.spec if faulted else None

    results: list[CellResult | None] = [None] * len(specs)
    misses: list[tuple[int, CellSpec]] = []
    for index, spec in enumerate(specs):
        key = spec.key(platform=platform, faults=fault_key)
        if cache is not None and runner.cache_read:
            hit, value, stored_elapsed, stored_trace = cache.get(key)
            # An entry written by a trace-less run cannot reproduce the
            # cell's spans, and a warm trace must equal a cold one — so
            # with tracing on, such an entry is a miss (and gets rewritten
            # with its trace below).
            if hit and (not collect or stored_trace is not None):
                results[index] = CellResult(
                    experiment=spec.experiment,
                    seed=spec.seed,
                    label=spec.label,
                    key=key,
                    value=value,
                    elapsed_s=stored_elapsed,
                    cached=True,
                    trace=stored_trace if collect else None,
                )
                continue
        misses.append((index, spec))

    def absorb_world(result: CellResult) -> None:
        if result.world:
            for counter, name in _WORLD_COUNTERS.items():
                stats.metrics.inc(counter, result.world.get(name, 0))

    def absorb_superseded(result: CellResult) -> None:
        # A retried attempt's spans are discarded, but its counters (e.g.
        # injected-fault tallies, world forks and builds) still happened:
        # merge just those so totals stay exhaustive and order-independent.
        absorb_world(result)
        if result.trace is not None:
            telemetry.metrics.merge(MetricSet.from_state(result.trace["metrics"]))

    # Counted over the pending cells only: a cached cell builds no world.
    later = _later_uses([spec for _, spec in misses])

    def finish(index: int, result: CellResult) -> None:
        results[index] = result
        if cache is not None and runner.cache_write and result.error is None:
            cache.put(result.key, result.value, result.elapsed_s, result.trace)

    if misses and runner.parallelism >= 1:
        with ProcessPoolExecutor(max_workers=runner.parallelism) as pool:
            pending = {
                pool.submit(
                    _execute_cell, spec, plan, 0, collect, platform,
                    runner.world_cache, uses,
                ): (index, spec, uses, 0)
                for (index, spec), uses in zip(misses, later)
            }
            while pending:
                done, _ = wait_futures(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index, spec, uses, attempt = pending.pop(future)
                    result = future.result()
                    if result.error is not None and attempt < runner.max_retries:
                        stats.cell_retries += 1
                        telemetry.count("runner.cell_retries")
                        absorb_superseded(result)
                        retry = pool.submit(
                            _execute_cell, spec, plan, attempt + 1, collect,
                            platform, runner.world_cache, uses,
                        )
                        pending[retry] = (index, spec, uses, attempt + 1)
                    else:
                        finish(index, result)
    elif misses:
        for (index, spec), uses in zip(misses, later):
            for attempt in range(runner.max_retries + 1):
                result = _execute_cell(
                    spec, plan, attempt, collect, platform,
                    runner.world_cache, uses,
                )
                if result.error is None or attempt == runner.max_retries:
                    break
                stats.cell_retries += 1
                telemetry.count("runner.cell_retries")
                absorb_superseded(result)
            finish(index, result)

    stats.parallelism = runner.parallelism
    stats.wall_seconds += time.perf_counter() - wall_start
    failed: list[CellResult] = []
    for result in results:
        stats.cells += 1
        telemetry.count("runner.cells")
        if result.cached:
            stats.cache_hits += 1
            stats.saved_seconds += result.elapsed_s
            telemetry.count("runner.cache_hits")
        else:
            stats.computed_seconds += result.elapsed_s
            telemetry.observe("runner.cell_seconds", result.elapsed_s)
        absorb_world(result)
        if result.error is not None:
            failed.append(result)
        if result.trace is not None:
            # Splice in spec order — never completion order — so pooled
            # and serial runs export identical traces.
            attrs = {
                "experiment": result.experiment,
                "label": result.label,
                "seed": result.seed,
            }
            if result.error is not None:
                attrs["error"] = result.error
            telemetry.splice(result.trace, name="cell", **attrs)
    stats.cell_errors += len(failed)
    if failed:
        telemetry.count("runner.cell_errors", len(failed))

    if failed and not runner.isolate_errors:
        labels = ", ".join(r.label or r.experiment for r in failed)
        raise CellExecutionError(
            f"{len(failed)} of {len(specs)} cells failed after "
            f"{runner.max_retries} retries [{labels}]; first error: "
            f"{failed[0].error}"
        )
    return results

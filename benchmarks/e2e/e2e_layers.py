"""Outside-in per-layer wall profile of one figure run.

Every layer is timed at its public entry points, wrapped from outside the
program for the length of a traced run: the wrapper pushes a frame on a
call stack, and a layer's *self time* is its frames' durations minus the
part covered by nested wrapped calls (of any layer).  Self times therefore
add up to the time spent inside any entry point, and the rest of the
traced wall is unattributed (runner loops, result aggregation).

Two rules keep the wrapping invisible to the program:

* Methods are patched on their class, never on instances.  World
  snapshots pickle bound methods (scheduled ``BackgroundDriver._evaluate``
  partials, idle reaps) as ``getattr(obj, name)``, so a class-level
  wrapper that keeps the method's ``__name__`` round-trips.
* A module-level function is rebound in every loaded ``repro`` module
  that holds it, because drivers import them by name
  (``from repro.core.fingerprint import fingerprint_gen1_instances``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import import_module
from typing import Any, Callable, Iterator

#: ``(layer, module, owner class or None for functions, entry points)``.
ENTRY_POINTS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("cloud.orchestrator.launch", "repro.cloud.orchestrator", "Orchestrator",
     ("connect", "scale_to", "scale_to_count", "deploy_service")),
    ("cloud.orchestrator.disconnect", "repro.cloud.orchestrator", "Orchestrator",
     ("disconnect",)),
    # The scheduler's only way into the orchestrator.
    ("cloud.orchestrator.reap", "repro.cloud.orchestrator", "_IdleReap",
     ("__call__",)),
    ("cloud.placement", "repro.cloud.placement", "PlacementPolicy", ("place",)),
    ("cloud.traffic", "repro.cloud.traffic", "TenantPopulation", ("generate",)),
    ("cloud.traffic", "repro.cloud.traffic", "BackgroundDriver",
     ("start", "_evaluate")),
    ("simtime", "repro.simtime.clock", "SimClock", ("advance_to",)),
    ("core.fingerprint", "repro.core.fingerprint", None,
     ("fingerprint_gen1_instances", "fingerprint_gen2_instances")),
    ("core.covert", "repro.core.covert", "RngCovertChannel", ("ctest_batch",)),
    ("core.verification", "repro.core.verification", "ScalableVerifier",
     ("verify",)),
    ("core.attack", "repro.core.attack.strategies", None,
     ("optimized_launch", "naive_launch")),
    ("core.attack", "repro.core.attack.campaign", "ColocationCampaign", ("run",)),
    ("core.attack", "repro.core.attack.census", None, ("estimate_cluster_size",)),
    ("analysis", "repro.experiments.base", None, ("host_coverage",)),
    ("analysis", "repro.analysis.metrics", None, ("pair_confusion",)),
    ("analysis", "repro.analysis.aggregation", "FootprintAccumulator",
     ("add_launch",)),
    ("experiments.world_build", "repro.experiments.base", None, ("default_env",)),
    ("runner.worldcache", "repro.runner.worldcache", "WorldSnapshot",
     ("capture", "fork")),
)

#: Every layer, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))


def _placed(counts: Counter, result: Any) -> None:
    counts["cloud.placement.instances"] += len(result)


def _tested(counts: Counter, result: Any) -> None:
    counts["core.covert.tests"] += len(result)  # one CTestResult per group


def _verified(counts: Counter, result: Any) -> None:
    counts["core.verification.tests"] += result.n_tests
    counts["core.verification.hosts"] += len(result.clusters)


def _captured(counts: Counter, result: Any) -> None:
    counts["runner.worldcache.builds"] += 1
    counts["runner.worldcache.snapshot_bytes"] += result.n_bytes


def _forked(counts: Counter, result: Any) -> None:
    counts["runner.worldcache.forks"] += 1


#: Work counters, keyed by ``Class.method`` and fed the method's return value.
WORK_COUNTERS: dict[str, Callable[[Counter, Any], None]] = {
    "PlacementPolicy.place": _placed,
    "RngCovertChannel.ctest_batch": _tested,
    "ScalableVerifier.verify": _verified,
    "WorldSnapshot.capture": _captured,
    "WorldSnapshot.fork": _forked,
}


class LayerTracer:
    """Per-layer self time, call counts and work counts from a call stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # One slot per open wrapped call: time covered by its nested calls.
        self._stack: list[float] = []

    def wrap(
        self,
        layer: str,
        fn: Callable,
        count: Callable[[Counter, Any], None] | None = None,
    ) -> Callable:
        """``fn`` timed as ``layer``; ``count`` sees each successful result."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(stack)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if depth:
                    stack[depth - 1] += elapsed
            if count is not None:
                count(counts, result)
            return result

        return traced

    @property
    def attributed_s(self) -> float:
        """Wall time spent inside any wrapped entry point."""
        return sum(self.self_s.values())

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self time, calls and share of ``wall_s``, plus ratios.

        A ratio whose base is zero (no placements, no verified hosts) is
        reported as 0 so every workload reports the same metric names.
        """
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.share"] = self.self_s[layer] / wall_s
        counts = self.counts
        placed = counts["cloud.placement.instances"]
        out["cloud.placement.instances"] = placed
        out["cloud.placement.us_per_instance"] = _ratio(
            1e6 * self.self_s["cloud.placement"], placed
        )
        out["cloud.orchestrator.launch.us_per_instance"] = _ratio(
            1e6 * self.self_s["cloud.orchestrator.launch"], placed
        )
        out["core.covert.tests"] = counts["core.covert.tests"]
        out["core.verification.tests_per_host"] = _ratio(
            counts["core.verification.tests"], counts["core.verification.hosts"]
        )
        builds = counts["runner.worldcache.builds"]
        forks = counts["runner.worldcache.forks"]
        out["runner.worldcache.builds"] = builds
        out["runner.worldcache.forks"] = forks
        out["runner.worldcache.fork_ratio"] = _ratio(forks, builds + forks)
        out["runner.worldcache.snapshot_mb"] = (
            counts["runner.worldcache.snapshot_bytes"] / 2**20
        )
        out["trace.attributed_frac"] = self.attributed_s / wall_s
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@contextmanager
def installed(tracer: LayerTracer) -> Iterator[LayerTracer]:
    """Wrap every entry point for the block; restore the originals after."""
    undo: list[tuple[object, str, object]] = []
    try:
        for layer, module_name, owner_name, names in ENTRY_POINTS:
            module = import_module(module_name)
            for name in names:
                if owner_name is None:
                    _rebind_function(tracer, layer, module, name, undo)
                else:
                    _patch_method(
                        tracer, layer, getattr(module, owner_name), name, undo
                    )
        yield tracer
    finally:
        for target, name, original in reversed(undo):
            setattr(target, name, original)


def _patch_method(
    tracer: LayerTracer,
    layer: str,
    owner: type,
    name: str,
    undo: list,
) -> None:
    # Only the class's own attribute: patching an inherited one would
    # shadow it on the subclass and hide the layer from the base class.
    raw = owner.__dict__[name]
    count = WORK_COUNTERS.get(f"{owner.__name__}.{name}")
    if isinstance(raw, classmethod):
        wrapped: object = classmethod(tracer.wrap(layer, raw.__func__, count))
    else:
        wrapped = tracer.wrap(layer, raw, count)
    undo.append((owner, name, raw))
    setattr(owner, name, wrapped)


def _rebind_function(
    tracer: LayerTracer,
    layer: str,
    module: object,
    name: str,
    undo: list,
) -> None:
    original = getattr(module, name)
    wrapped = tracer.wrap(layer, original)
    for module_name, holder in list(sys.modules.items()):
        if holder is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(holder).items()):
            if value is original:
                undo.append((holder, attr, original))
                setattr(holder, attr, wrapped)

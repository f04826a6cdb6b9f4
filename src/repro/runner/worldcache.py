"""Warm-world snapshots: checkpoint a built region once, fork it per cell.

Sweep grids (the figure-family benchmarks, the channel x platform matrix)
are dozens of cells that differ in one knob but share the same simulated
*world*: the same region profile, seed, platform personality, and — most
expensively — the same warmed background-tenant population.  Before this
module every cell re-ran ``default_env`` plus the whole traffic warmup;
with it, the first cell to need a world builds it, a
:class:`WorldSnapshot` checkpoints the complete
:class:`~repro.experiments.base.SimulationEnv`, and every later cell
*forks* a private copy from the snapshot instead.

Capture follows demand.  The runner tells each cell how many *later*
cells of the same run declare its world (:func:`current_later_uses`): a
world no later cell declares is never pickled, and a snapshot is released
right after its last fork.  Pickling costs a working set about the size
of the world and holding it costs its bytes, so a sweep of distinct
worlds (the background-load tenant sweep) captures nothing at all.

The snapshot is the pickled object graph of the environment: fleet-store
and service-state columns, orchestrator instance tables and RNG streams,
the :class:`~repro.simtime.clock.SimClock`, the event-scheduler queue
(pending idle reaps and background evaluations included), and the warmed
:class:`~repro.cloud.traffic.BackgroundDriver` /
:class:`~repro.cloud.traffic.TenantPopulation` state.  Pickle preserves
shared references and exact ``numpy`` bit-generator state, so a forked
world's every subsequent draw, launch, and event firing is byte-identical
to a freshly built one — the twin-world suites pin exactly that.

Byte-identity extends to telemetry: the spans and metrics emitted while
the world was first built are captured on a child handle and re-emitted
(:meth:`~repro.telemetry.Telemetry.graft`) on every fork, so a traced
forked run diffs clean against a traced fresh run.  A snapshot captured
with tracing off carries no build trace and reads as a *miss* when
tracing is on (the cell cache applies the same rule).

Worlds are keyed by a content hash of their :class:`EnvSpec` — the full
set of ``default_env`` inputs.  Forking is disabled (build-fresh, no
snapshot) when an enabled fault plan shapes the world: fault counters
accumulate on the ambient plan object, which a pickled copy would detach
from.  The cache itself is an in-process LRU, kept as a cap: persistent
pool workers keep their own and reuse it across every cell of a run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.cloud.platform import PlatformProfile, platform_profile
from repro.cloud.topology import RegionProfile
from repro.cloud.traffic import TrafficConfig
from repro.faults import FaultSpec, RetryPolicy
from repro.runner.cellspec import canonicalize
from repro.sandbox.base import TscPolicy
from repro.telemetry import (
    MetricSet,
    Telemetry,
    current_telemetry,
    telemetry_context,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.base import SimulationEnv

#: Environment variable bounding the per-process LRU (0 disables it).
WORLD_CACHE_SIZE_ENV = "REPRO_WORLD_CACHE_SIZE"

#: Default number of warm worlds kept per process.  Worlds are a few MB
#: each at benchmark scale; sweeps rarely interleave more than a handful
#: of distinct (seed, platform, background) combinations at once.
DEFAULT_WORLD_CACHE_SIZE = 8


@dataclass(frozen=True)
class EnvSpec:
    """The full identity of one ``default_env`` world.

    Drivers attach one to each :class:`~repro.runner.cellspec.CellSpec`
    (the ``env`` field) to opt the cell into warm-world forking; the
    runner activates the process cache around such cells, and
    ``default_env`` resolves the *actual* spec of whatever it is asked to
    build — so the declared spec is advisory (opt-in plus display) while
    the content hash is always computed from the real inputs.

    Fields mirror :func:`~repro.experiments.base.default_env`.  String
    platform names and :class:`~repro.sandbox.base.TscPolicy` members are
    normalized at construction so equal worlds hash equally however they
    were spelled.
    """

    region: str = "us-east1"
    seed: int = 0
    tsc_policy: str = TscPolicy.NATIVE.value
    profile: RegionProfile | None = None
    background: TrafficConfig | None = None
    platform: PlatformProfile | None = None
    fault_spec: FaultSpec | None = None
    retry_policy: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if isinstance(self.tsc_policy, TscPolicy):
            object.__setattr__(self, "tsc_policy", self.tsc_policy.value)
        if isinstance(self.platform, str):
            object.__setattr__(self, "platform", platform_profile(self.platform))

    @property
    def forkable(self) -> bool:
        """Whether worlds of this spec may be snapshot-forked.

        An enabled fault plan disables forking: its injection decisions
        are pure, but its *counters* accumulate on the ambient plan
        object, and a pickled copy would silently detach from them.
        """
        return self.fault_spec is None or not self.fault_spec.enabled

    def content_hash(self) -> str:
        """SHA-256 over the canonicalized spec (the world cache key)."""
        payload = {
            "region": self.region,
            "seed": int(self.seed),
            "tsc_policy": self.tsc_policy,
            "profile": canonicalize(self.profile),
            "background": canonicalize(self.background),
            "platform": canonicalize(self.platform),
            "fault_spec": canonicalize(self.fault_spec),
            "retry_policy": canonicalize(self.retry_policy),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class WorldSnapshot:
    """One checkpointed world: pickled env graph plus its build trace.

    ``payload`` is immune to later mutation of the source environment —
    capture serializes eagerly.  ``build_trace`` is the telemetry
    (spans + metrics) emitted while the world was built, ``None`` when it
    was captured with tracing off.
    """

    spec_hash: str
    payload: bytes
    build_trace: dict | None = None
    build_seconds: float = 0.0

    @property
    def n_bytes(self) -> int:
        """Size of the pickled world."""
        return len(self.payload)

    @classmethod
    def capture(
        cls,
        env: "SimulationEnv",
        spec_hash: str = "",
        build_trace: dict | None = None,
        build_seconds: float = 0.0,
    ) -> "WorldSnapshot":
        """Checkpoint ``env`` (everything reachable from it) right now."""
        return cls(
            spec_hash=spec_hash,
            payload=pickle.dumps(env, protocol=pickle.HIGHEST_PROTOCOL),
            build_trace=build_trace,
            build_seconds=build_seconds,
        )

    def fork(self) -> "SimulationEnv":
        """Materialize an independent world from the checkpoint.

        The returned environment shares nothing with the source or with
        sibling forks; its clock, RNG streams, scheduler queue, and fleet
        columns resume exactly where :meth:`capture` froze them.  The
        ambient telemetry is re-bound to the restored clock so spans keep
        sim-time stamps after the restore, and the recorded build trace
        (if any) is grafted so a traced forked run stays byte-identical
        to a traced fresh one.
        """
        env: "SimulationEnv" = pickle.loads(self.payload)
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.graft(self.build_trace)
        # The fork path's clock is a *new* object; without the rebind,
        # spans opened after the restore would be stamped from whatever
        # clock the previous cell left behind (or none at all).
        telemetry.use_clock(env.clock)
        return env


class WorldCache:
    """An LRU of warm :class:`WorldSnapshot` entries, hashed by spec.

    Counters (``worldcache.hits`` / ``misses`` / ``evictions`` /
    ``snapshots`` / ``snapshot_bytes`` / ``fork_seconds`` /
    ``build_seconds``) accumulate on :attr:`metrics`
    only — the runner snapshots per-cell deltas into its ``[runner]``
    stats.  They are deliberately *not* mirrored onto the ambient
    telemetry handle: a warm cell's trace must stay byte-identical to a
    cold cell's, and hit/miss tallies (or wall-second timings) recorded
    into the traced metrics would break that.
    """

    def __init__(self, maxsize: int = DEFAULT_WORLD_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"world cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.metrics = MetricSet()
        self._entries: OrderedDict[str, WorldSnapshot] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._entries

    @property
    def hits(self) -> int:
        return int(self.metrics.counter("worldcache.hits"))

    @property
    def misses(self) -> int:
        return int(self.metrics.counter("worldcache.misses"))

    @property
    def evictions(self) -> int:
        return int(self.metrics.counter("worldcache.evictions"))

    def get(self, spec_hash: str) -> WorldSnapshot | None:
        """The snapshot for ``spec_hash`` (refreshes LRU order), or None.

        Pure lookup — no counters; use :meth:`build_or_fork` for the
        accounted path.
        """
        snapshot = self._entries.get(spec_hash)
        if snapshot is not None:
            self._entries.move_to_end(spec_hash)
        return snapshot

    def put(self, snapshot: WorldSnapshot) -> None:
        """Store ``snapshot``, evicting the least-recently-used world."""
        self._entries[snapshot.spec_hash] = snapshot
        self._entries.move_to_end(snapshot.spec_hash)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.metrics.inc("worldcache.evictions")

    def build_or_fork(
        self,
        spec: EnvSpec,
        builder: Callable[[], "SimulationEnv"],
        later_uses: int | None = None,
    ) -> "SimulationEnv":
        """Fork a warm world for ``spec``, building (and caching) on miss.

        ``later_uses`` is how many later users will ask for this world.
        ``None`` (unknown) captures on every miss and keeps the snapshot.
        A positive count captures on a miss too; ``0`` captures nothing
        and releases any stored snapshot of the world once this call has
        used it — so a world is pickled only when a later user will fork
        it, and held only until its last fork.

        The miss path returns the freshly built environment itself — the
        checkpoint is taken just before handing it over, so the caller's
        subsequent mutations never leak into the cache.  With tracing
        enabled the build runs on a child telemetry handle whose records
        are grafted back verbatim, which is what lets the fork path
        replay them byte-identically later.  A snapshot captured without
        a build trace counts as a miss when tracing is on (and is then
        rewritten with its trace).
        """
        telemetry = current_telemetry()
        spec_hash = spec.content_hash()
        snapshot = self.get(spec_hash)
        if later_uses == 0:
            self._entries.pop(spec_hash, None)
        if snapshot is not None and (
            not telemetry.enabled or snapshot.build_trace is not None
        ):
            start = time.perf_counter()
            env = snapshot.fork()
            elapsed = time.perf_counter() - start
            self.metrics.inc("worldcache.hits")
            self.metrics.inc("worldcache.fork_seconds", elapsed)
            return env

        start = time.perf_counter()
        build_trace: dict | None = None
        if telemetry.enabled:
            child = Telemetry()
            with telemetry_context(child):
                env = builder()
            build_trace = child.snapshot_trace()
            # Re-emit on the real handle exactly as direct recording
            # would have, then hand it the world's clock (the child held
            # it during the build).
            telemetry.graft(build_trace)
            telemetry.use_clock(env.clock)
        else:
            env = builder()
        build_seconds = time.perf_counter() - start
        if later_uses != 0:
            snapshot = WorldSnapshot.capture(
                env,
                spec_hash=spec_hash,
                build_trace=build_trace,
                build_seconds=build_seconds,
            )
            self.put(snapshot)
            self.metrics.inc("worldcache.snapshots")
            self.metrics.inc("worldcache.snapshot_bytes", snapshot.n_bytes)
        self.metrics.inc("worldcache.misses")
        self.metrics.inc("worldcache.build_seconds", build_seconds)
        return env

    def stats_snapshot(self) -> dict[str, float]:
        """Counter totals (pair with :meth:`stats_since`)."""
        return self.metrics.snapshot()

    def stats_since(self, before: dict[str, float]) -> dict[str, float]:
        """Counter growth since :meth:`stats_snapshot` (one cell's use)."""
        return self.metrics.since(before)


# ----------------------------------------------------------------------
# Ambient context + per-process cache
# ----------------------------------------------------------------------
_ACTIVE_CACHE: ContextVar[WorldCache | None] = ContextVar(
    "repro_world_cache", default=None
)
_LATER_USES: ContextVar[int | None] = ContextVar(
    "repro_world_later_uses", default=None
)


def current_world_cache() -> WorldCache | None:
    """The ambient world cache, or ``None`` when forking is off."""
    return _ACTIVE_CACHE.get()


def current_later_uses() -> int | None:
    """How many later cells of the run declare this cell's world.

    ``None`` when unknown (outside a runner cell); ``default_env`` hands
    it to :meth:`WorldCache.build_or_fork` as the world's demand.
    """
    return _LATER_USES.get()


@contextmanager
def world_cache_context(
    cache: WorldCache | None, later_uses: int | None = None
) -> Iterator[WorldCache | None]:
    """Activate ``cache`` as the ambient world cache for the block.

    ``later_uses`` is the block's world demand (see
    :func:`current_later_uses`).  ``world_cache_context(None)`` explicitly
    disables forking inside the block (shadowing any outer cache).
    """
    token = _ACTIVE_CACHE.set(cache)
    later_token = _LATER_USES.set(later_uses)
    try:
        yield cache
    finally:
        _LATER_USES.reset(later_token)
        _ACTIVE_CACHE.reset(token)


_PROCESS_CACHE: WorldCache | None = None


def process_world_cache() -> WorldCache | None:
    """This process's persistent world cache (pool workers each own one).

    Sized by ``$REPRO_WORLD_CACHE_SIZE``; ``0`` disables warm-world
    forking process-wide.  Lazily created so the env var is honored at
    first use, and shared across every cell the process executes — that
    reuse across cells is the whole point.
    """
    global _PROCESS_CACHE
    raw = os.environ.get(WORLD_CACHE_SIZE_ENV, "")
    size = DEFAULT_WORLD_CACHE_SIZE
    if raw.strip():
        try:
            size = int(raw)
        except ValueError:
            size = DEFAULT_WORLD_CACHE_SIZE
    if size < 1:
        return None
    if _PROCESS_CACHE is None or _PROCESS_CACHE.maxsize != size:
        _PROCESS_CACHE = WorldCache(maxsize=size)
    return _PROCESS_CACHE


def reset_process_world_cache() -> None:
    """Drop the process cache (test isolation)."""
    global _PROCESS_CACHE
    _PROCESS_CACHE = None

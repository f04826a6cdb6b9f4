"""Warm-world snapshot engine: capture, fork, cache, and runner wiring."""

from __future__ import annotations

import pytest

from repro.cloud.platform import platform_profile
from repro.cloud.services import ServiceConfig
from repro.cloud.traffic import TrafficConfig
from repro.experiments.base import default_env
from repro.faults import FaultPlan
from repro.runner import (
    CellSpec,
    EnvSpec,
    RunnerConfig,
    WorldCache,
    WorldSnapshot,
    cache_key,
    process_world_cache,
    reset_process_world_cache,
    run_cells,
    world_cache_context,
)
from repro.runner.pool import RunStats
from repro.sandbox.base import TscPolicy
from repro.telemetry import Telemetry, span_lines, telemetry_context
from tests.conftest import tiny_profile


def _build():
    return default_env(profile=tiny_profile(), seed=7)


def _drive(env) -> dict:
    """Deterministic post-restore activity touching every moving part."""
    name = env.attacker.deploy(ServiceConfig(name="drv"))
    handles = env.attacker.connect(name, 3)
    env.clock.sleep(45.0)
    env.attacker.probe(f"account-1/{name}")
    draws = env.orchestrator._rng.integers(0, 2**31, size=4).tolist()
    return {
        "now": env.clock.now(),
        "ids": sorted(h.instance_id for h in handles),
        "hosts": sorted(
            env.orchestrator.true_host_of(h.instance_id) for h in handles
        ),
        "draws": draws,
        "background": (
            None
            if env.background is None
            else (
                env.background.stats.evaluations,
                env.background.stats.requests,
            )
        ),
    }


# ----------------------------------------------------------------------
# EnvSpec identity
# ----------------------------------------------------------------------
class TestEnvSpec:
    def test_normalizes_tsc_policy_and_platform_name(self):
        a = EnvSpec(seed=3, tsc_policy=TscPolicy.EMULATED, platform="aws_lambda_like")
        b = EnvSpec(
            seed=3,
            tsc_policy=TscPolicy.EMULATED.value,
            platform=platform_profile("aws_lambda_like"),
        )
        assert a.tsc_policy == "emulated"
        assert a.platform == b.platform
        assert a.content_hash() == b.content_hash()

    def test_hash_distinguishes_every_axis(self):
        base = EnvSpec(seed=1)
        distinct = [
            base,
            EnvSpec(seed=2),
            EnvSpec(seed=1, region="us-west1"),
            EnvSpec(seed=1, tsc_policy=TscPolicy.EMULATED),
            EnvSpec(seed=1, profile=tiny_profile()),
            EnvSpec(seed=1, background=TrafficConfig(n_tenants=5)),
            EnvSpec(seed=1, platform="aws_lambda_like"),
            EnvSpec(seed=1, fault_spec=FaultPlan.from_spec("launch=0.1,seed=3").spec),
        ]
        hashes = [spec.content_hash() for spec in distinct]
        assert len(set(hashes)) == len(hashes)

    def test_forkable_rules(self):
        assert EnvSpec().forkable
        enabled = FaultPlan.from_spec("launch=0.2,seed=1").spec
        assert enabled.enabled
        assert not EnvSpec(fault_spec=enabled).forkable
        disabled = FaultPlan.from_spec("seed=1").spec
        assert EnvSpec(fault_spec=disabled).forkable


# ----------------------------------------------------------------------
# Snapshot capture / fork
# ----------------------------------------------------------------------
class TestWorldSnapshot:
    def test_fork_behaves_identically_to_fresh_build(self):
        snapshot = WorldSnapshot.capture(_build())
        assert snapshot.n_bytes > 0
        assert _drive(snapshot.fork()) == _drive(_build())

    def test_fork_with_warmed_background_matches_fresh(self):
        traffic = TrafficConfig(n_tenants=10, seed=5)

        def build():
            env = default_env(profile=tiny_profile(), seed=9, background=traffic)
            env.clock.sleep(120.0)  # warm the population mid-schedule
            return env

        fresh = _drive(build())
        forked = _drive(WorldSnapshot.capture(build()).fork())
        assert forked == fresh
        assert forked["background"] is not None
        assert forked["background"] > (0, 0)

    def test_sibling_forks_are_independent(self):
        snapshot = WorldSnapshot.capture(_build())
        first = snapshot.fork()
        _drive(first)  # mutate heavily
        assert _drive(snapshot.fork()) == _drive(_build())

    def test_fork_rebinds_telemetry_clock(self):
        snapshot = WorldSnapshot.capture(_build())
        telemetry = Telemetry()
        with telemetry_context(telemetry):
            env = snapshot.fork()
            env.clock.sleep(30.0)
            with telemetry.span("probe"):
                pass
        (span,) = [s for s in telemetry.records() if s.name == "probe"]
        assert span.t0 == env.clock.now()


# ----------------------------------------------------------------------
# The LRU cache
# ----------------------------------------------------------------------
class TestWorldCache:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WorldCache(maxsize=0)

    def test_build_or_fork_counts_miss_then_hits(self):
        cache = WorldCache()
        spec = EnvSpec(seed=7, profile=tiny_profile())
        before = cache.stats_snapshot()
        built = cache.build_or_fork(spec, _build)
        forked = cache.build_or_fork(spec, _build)
        assert cache.misses == 1 and cache.hits == 1
        assert _drive(built) == _drive(forked)
        delta = cache.stats_since(before)
        assert delta["worldcache.misses"] == 1
        assert delta["worldcache.hits"] == 1
        assert delta["worldcache.build_seconds"] > 0
        assert delta["worldcache.fork_seconds"] > 0

    def test_demand_counts_gate_capture_and_release(self):
        cache = WorldCache()
        spec = EnvSpec(seed=7, profile=tiny_profile())
        key = spec.content_hash()
        cache.build_or_fork(spec, _build, later_uses=0)
        assert key not in cache and cache.misses == 1
        assert cache.metrics.counter("worldcache.snapshots") == 0
        built = cache.build_or_fork(spec, _build, later_uses=2)
        assert key in cache
        n_bytes = cache.get(key).n_bytes
        assert cache.metrics.counter("worldcache.snapshot_bytes") == n_bytes
        cache.build_or_fork(spec, _build, later_uses=1)
        assert key in cache  # one later user left
        forked = cache.build_or_fork(spec, _build, later_uses=0)
        assert key not in cache  # released after its last fork
        assert cache.hits == 2 and cache.misses == 2
        assert cache.metrics.counter("worldcache.snapshots") == 1
        assert _drive(built) == _drive(forked)

    def test_lru_evicts_oldest_world(self):
        cache = WorldCache(maxsize=2)
        specs = [EnvSpec(seed=s, profile=tiny_profile()) for s in (1, 2, 3)]
        for spec in specs:
            cache.build_or_fork(spec, lambda s=spec: default_env(
                profile=tiny_profile(), seed=s.seed
            ))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert specs[0].content_hash() not in cache
        # A get refreshes recency: seed-2 survives the next insertion.
        assert cache.get(specs[1].content_hash()) is not None
        cache.build_or_fork(
            EnvSpec(seed=4, profile=tiny_profile()),
            lambda: default_env(profile=tiny_profile(), seed=4),
        )
        assert specs[1].content_hash() in cache
        assert specs[2].content_hash() not in cache

    def test_traceless_snapshot_is_a_miss_under_tracing(self):
        cache = WorldCache()
        spec = EnvSpec(seed=7, profile=tiny_profile())
        cache.build_or_fork(spec, _build)  # tracing off: no build trace
        assert cache.get(spec.content_hash()).build_trace is None
        with telemetry_context(Telemetry()):
            cache.build_or_fork(spec, _build)
            assert cache.misses == 2  # rebuilt, snapshot rewritten with trace
            assert cache.get(spec.content_hash()).build_trace is not None
            cache.build_or_fork(spec, _build)
        assert cache.hits == 1

    def test_traced_fork_matches_traced_fresh_build_byte_for_byte(self):
        traffic = TrafficConfig(n_tenants=6, seed=2)

        def scenario() -> list[str]:
            env = default_env(
                profile=tiny_profile(), seed=4, background=traffic
            )
            _drive(env)
            return span_lines(telemetry)

        telemetry = Telemetry()
        with telemetry_context(telemetry):
            fresh = scenario()

        cache = WorldCache()
        telemetry = Telemetry()
        with telemetry_context(telemetry), world_cache_context(cache):
            built = scenario()  # miss: built on a child handle, grafted
        telemetry = Telemetry()
        with telemetry_context(telemetry), world_cache_context(cache):
            forked = scenario()  # hit: build trace replayed on fork
        assert cache.misses == 1 and cache.hits == 1
        assert built == fresh
        assert forked == fresh


# ----------------------------------------------------------------------
# default_env integration
# ----------------------------------------------------------------------
class TestDefaultEnvIntegration:
    def test_ambient_cache_forks_equal_worlds(self):
        cache = WorldCache()
        with world_cache_context(cache):
            first = _drive(_build())
            second = _drive(_build())
        assert cache.misses == 1 and cache.hits == 1
        assert first == second

    def test_no_ambient_cache_builds_fresh(self):
        cache = WorldCache()
        _build()
        assert cache.misses == 0 and len(cache) == 0

    def test_enabled_fault_plan_is_never_forked(self):
        cache = WorldCache()
        plan = FaultPlan.from_spec("launch=0.5,seed=11")
        with world_cache_context(cache):
            env = default_env(profile=tiny_profile(), seed=3, fault_plan=plan)
            assert env.orchestrator.fault_plan is plan  # ambient identity kept
            default_env(profile=tiny_profile(), seed=3, fault_plan=plan)
        assert len(cache) == 0
        assert cache.misses == 0 and cache.hits == 0


# ----------------------------------------------------------------------
# Runner wiring
# ----------------------------------------------------------------------
TRAFFIC = TrafficConfig(n_tenants=8, seed=3)
WORLD = EnvSpec(seed=21, profile=tiny_profile(), background=TRAFFIC)


def _world_cell(config: dict, seed: int) -> dict:
    env = default_env(profile=tiny_profile(), seed=seed, background=TRAFFIC)
    env.clock.sleep(30.0 + config["offset"])
    name = env.attacker.deploy(ServiceConfig(name="cell"))
    handles = env.attacker.connect(name, 2)
    return {
        "now": env.clock.now(),
        "hosts": sorted(
            env.orchestrator.true_host_of(h.instance_id) for h in handles
        ),
        "draw": int(env.orchestrator._rng.integers(0, 2**31)),
    }


def _specs(env_spec: EnvSpec | None) -> list[CellSpec]:
    return [
        CellSpec(
            experiment="world-smoke",
            fn=_world_cell,
            config={"offset": float(offset)},
            seed=21,
            label=f"offset-{offset}",
            env=env_spec,
        )
        for offset in range(4)
    ]


def _seeded_specs(seeds: list[int], fn=_world_cell) -> list[CellSpec]:
    """One cell per seed, each declaring its own seed's world."""
    return [
        CellSpec(
            experiment="world-smoke",
            fn=fn,
            config={"offset": float(position)},
            seed=seed,
            label=f"seed-{seed}/{position}",
            env=EnvSpec(seed=seed, profile=tiny_profile(), background=TRAFFIC),
        )
        for position, seed in enumerate(seeds)
    ]


_FLAKY_ATTEMPTS: list[int] = []


def _flaky_world_cell(config: dict, seed: int) -> dict:
    """``_world_cell`` that raises on its first call, after taking its world."""
    value = _world_cell(config, seed)
    _FLAKY_ATTEMPTS.append(seed)
    if config["offset"] and len(_FLAKY_ATTEMPTS) == 2:
        raise RuntimeError("transient")
    return value


class TestRunnerWiring:
    def test_warm_serial_equals_cold_serial(self):
        reset_process_world_cache()
        warm = RunnerConfig()
        warm_values = [r.value for r in run_cells(_specs(WORLD), warm)]
        cold = RunnerConfig(world_cache=False)
        cold_values = [r.value for r in run_cells(_specs(WORLD), cold)]
        assert warm_values == cold_values
        assert warm.stats.world_misses == 1
        assert warm.stats.world_hits == 3
        assert warm.stats.world_snapshots == 1
        assert warm.stats.world_snapshot_bytes > 0
        assert cold.stats.world_hits == 0 and cold.stats.world_misses == 0
        # The last fork released the world.
        assert len(process_world_cache()) == 0

    def test_distinct_worlds_capture_nothing(self, monkeypatch):
        reset_process_world_cache()
        captures = []
        capture = WorldSnapshot.capture.__func__

        def counting_capture(cls, *args, **kwargs):
            captures.append(kwargs.get("spec_hash"))
            return capture(cls, *args, **kwargs)

        monkeypatch.setattr(
            WorldSnapshot, "capture", classmethod(counting_capture)
        )
        seeds = [21, 22, 23, 24]
        warm = RunnerConfig()
        warm_values = [r.value for r in run_cells(_seeded_specs(seeds), warm)]
        cold = RunnerConfig(world_cache=False)
        cold_values = [r.value for r in run_cells(_seeded_specs(seeds), cold)]
        assert warm_values == cold_values
        assert captures == []
        assert len(process_world_cache()) == 0
        assert warm.stats.world_misses == 4 and warm.stats.world_hits == 0
        assert warm.stats.world_snapshots == 0
        assert warm.stats.world_snapshot_bytes == 0

    def test_world_survives_an_interleaved_world(self):
        reset_process_world_cache()
        warm = RunnerConfig()
        results = run_cells(_seeded_specs([21, 22, 21]), warm)
        cold = RunnerConfig(world_cache=False)
        cold_values = [
            r.value for r in run_cells(_seeded_specs([21, 22, 21]), cold)
        ]
        assert [r.value for r in results] == cold_values
        assert results[2].world["worldcache.hits"] == 1
        assert warm.stats.world_snapshots == 1
        assert warm.stats.world_misses == 2 and warm.stats.world_hits == 1
        assert len(process_world_cache()) == 0

    def test_retried_last_consumer_rebuilds_its_released_world(self):
        reset_process_world_cache()
        _FLAKY_ATTEMPTS.clear()
        warm = RunnerConfig()
        results = run_cells(_seeded_specs([21, 21], _flaky_world_cell), warm)
        cold = RunnerConfig(world_cache=False)
        cold_values = [
            r.value for r in run_cells(_seeded_specs([21, 21]), cold)
        ]
        assert warm.stats.cell_retries == 1
        assert [r.value for r in results] == cold_values
        # Attempt 0 forked and released the world; the retry built it
        # fresh and, as the last consumer, captured nothing.
        assert results[1].world["worldcache.misses"] == 1
        assert results[1].world.get("worldcache.snapshots", 0) == 0
        assert len(process_world_cache()) == 0
        # The superseded attempt's fork still counts in the run's totals.
        assert warm.stats.world_hits == 1
        assert warm.stats.world_misses == 2

    def test_pooled_warm_equals_serial_warm(self):
        reset_process_world_cache()
        serial = [r.value for r in run_cells(_specs(WORLD), RunnerConfig())]
        pooled_runner = RunnerConfig(parallelism=2)
        pooled = [r.value for r in run_cells(_specs(WORLD), pooled_runner)]
        assert pooled == serial
        # Every worker builds its world once; forks cover the rest.
        total = pooled_runner.stats.world_hits + pooled_runner.stats.world_misses
        assert total == 4

    def test_undeclared_cells_skip_the_world_cache(self):
        reset_process_world_cache()
        runner = RunnerConfig()
        results = run_cells(_specs(None), runner)
        assert all(r.world is None for r in results)
        assert runner.stats.world_hits == 0 and runner.stats.world_misses == 0

    def test_world_cache_size_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORLD_CACHE_SIZE", "0")
        reset_process_world_cache()
        assert process_world_cache() is None
        runner = RunnerConfig()
        results = run_cells(_specs(WORLD), runner)
        assert all(r.world is None for r in results)

    def test_cell_results_carry_world_deltas(self):
        reset_process_world_cache()
        results = run_cells(_specs(WORLD), RunnerConfig())
        assert results[0].world["worldcache.misses"] == 1
        assert results[0].world["worldcache.snapshots"] == 1
        for result in results[1:]:
            assert result.world["worldcache.hits"] == 1


# ----------------------------------------------------------------------
# Stats surface
# ----------------------------------------------------------------------
class TestRunStatsSummary:
    def test_silent_without_world_traffic(self):
        assert "worldcache" not in RunStats(cells=3).summary()

    def test_reports_forks_builds_and_evictions(self):
        stats = RunStats(
            cells=4,
            world_hits=3,
            world_misses=1,
            world_evictions=2,
            world_fork_seconds=0.25,
            world_build_seconds=1.5,
        )
        text = stats.summary()
        assert "worldcache 3 forks/1 builds/2 evictions" in text
        assert "build 1.5s" in text

    def test_reports_snapshots_and_their_size(self):
        stats = RunStats(
            world_hits=9, world_misses=3, world_snapshots=3,
            world_snapshot_bytes=3 * 2**20,
        )
        assert "3 snapshots 3.00MB" in stats.summary()


# ----------------------------------------------------------------------
# Cell-cache keys under platform / fault contexts (PR satellite)
# ----------------------------------------------------------------------
class TestContextualCellKeys:
    def test_legacy_keys_unchanged_when_contexts_absent(self):
        spec = CellSpec("exp", _world_cell, {"offset": 0.0}, seed=1)
        assert spec.key() == cache_key("exp", {"offset": 0.0}, 1)
        assert spec.key() == spec.key(platform=None, faults=None)

    def test_platform_and_faults_shape_the_key(self):
        spec = CellSpec("exp", _world_cell, {"offset": 0.0}, seed=1)
        aws = platform_profile("aws_lambda_like")
        azure = platform_profile("azure_functions_like")
        faults = FaultPlan.from_spec("launch=0.1,seed=2").spec
        keys = {
            spec.key(),
            spec.key(platform=aws),
            spec.key(platform=azure),
            spec.key(faults=faults),
            spec.key(platform=aws, faults=faults),
        }
        assert len(keys) == 5

    def test_platform_runs_hit_the_cell_cache_warm(self, tmp_path):
        """--platform no longer bypasses the cache: warm == cold, keyed apart."""
        reset_process_world_cache()
        aws = platform_profile("aws_lambda_like")

        def runner() -> RunnerConfig:
            return RunnerConfig(
                cache_read=True,
                cache_write=True,
                cache_dir=tmp_path,
                platform=aws,
            )

        cold = runner()
        cold_results = run_cells(_specs(None), cold)
        assert cold.stats.cache_hits == 0
        warm = runner()
        warm_results = run_cells(_specs(None), warm)
        assert warm.stats.cache_hits == len(warm_results)
        assert [r.value for r in warm_results] == [
            r.value for r in cold_results
        ]
        # Baseline (no platform) runs use different keys: no cross-talk.
        base = RunnerConfig(
            cache_read=True, cache_write=True, cache_dir=tmp_path
        )
        base_results = run_cells(_specs(None), base)
        assert base.stats.cache_hits == 0
        assert {r.key for r in base_results}.isdisjoint(
            {r.key for r in warm_results}
        )

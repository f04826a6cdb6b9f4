"""Self-tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import bench_e2e
from e2e_layers import ENTRY_POINTS, LAYERS, LayerTracer, installed
from e2e_workloads import WORKLOADS

import repro.core.attack.census as census_attack
import repro.core.attack.strategies as strategies
import repro.core.fingerprint as fingerprint
import repro.experiments.background_load as background_load
import repro.experiments.base as base
import repro.experiments.coverage as coverage
from repro.cloud.traffic import TenantPopulation, TrafficConfig
from repro.runner import WorldSnapshot


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_nested_self_times_sum_to_the_root_duration():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    def leaf():
        clock.now += 3

    def failing_leaf():
        clock.now += 4
        raise ValueError("boom")

    def middle():
        clock.now += 2
        traced_leaf()
        clock.now += 1

    def root():
        clock.now += 5
        traced_middle()
        traced_leaf()
        with pytest.raises(ValueError):
            traced_failing()
        clock.now += 7

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_failing = tracer.wrap("leaf", failing_leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("root", root)()

    assert dict(tracer.self_s) == {"root": 12, "middle": 3, "leaf": 10}
    assert tracer.attributed_s == clock.now == 25
    assert dict(tracer.calls) == {"root": 1, "middle": 1, "leaf": 3}
    assert tracer._stack == []


def test_functions_imported_by_name_are_rebound_everywhere():
    original_fp = fingerprint.fingerprint_gen1_instances
    original_env = base.default_env
    tracer = LayerTracer()
    with installed(tracer):
        wrapped = fingerprint.fingerprint_gen1_instances
        assert wrapped is not original_fp
        assert strategies.fingerprint_gen1_instances is wrapped
        assert census_attack.fingerprint_gen1_instances is wrapped
        for module in (coverage, background_load):
            assert module.default_env is base.default_env is not original_env
        assert strategies.fingerprint_gen1_instances([]) == []
    assert tracer.calls["core.fingerprint"] == 1


def test_classmethod_is_wrapped_and_stays_a_classmethod():
    tracer = LayerTracer()
    with installed(tracer):
        assert isinstance(TenantPopulation.__dict__["generate"], classmethod)
        population = TenantPopulation.generate(
            TrafficConfig(n_tenants=4, seed=3, duration_s=600.0)
        )
    assert isinstance(population, TenantPopulation)
    assert population.n_tenants == 4
    assert tracer.calls["cloud.traffic"] == 1


def _forked_background_world() -> list[tuple]:
    """A live world, captured and forked, both advanced ten minutes."""
    env = base.default_env(
        "test-region1",
        seed=5,
        background=TrafficConfig(n_tenants=150, seed=9, duration_s=1800.0),
    )
    fork = WorldSnapshot.capture(env).fork()
    states = []
    for world in (env, fork):
        world.clock.sleep(600.0)
        states.append((
            world.datacenter.fleet.load_slots.tobytes(),
            world.background.stats,
            world.background.background_instances(),
        ))
    return states


def test_wrapped_background_world_survives_capture_and_fork():
    tracer = LayerTracer()
    with installed(tracer):
        traced_env, traced_fork = _forked_background_world()
    plain_env, plain_fork = _forked_background_world()

    assert traced_env == traced_fork == plain_env == plain_fork
    assert tracer.counts["runner.worldcache.builds"] == 1
    assert tracer.counts["runner.worldcache.forks"] == 1
    # Evaluations scheduled before the capture fire through the wrapper
    # in the fork too: start + generate + evaluations in both worlds.
    evaluations = tracer.calls["cloud.traffic"] - 2
    assert evaluations > 0 and evaluations % 2 == 0


def _entry_point_state() -> dict:
    state = {}
    for _, module_name, owner, names in ENTRY_POINTS:
        module = sys.modules[module_name]
        for name in names:
            if owner is None:
                state[(module_name, name)] = getattr(module, name)
            else:
                cls = getattr(module, owner)
                state[(owner, name)] = cls.__dict__[name]
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro."):
            for attr, value in vars(module).items():
                if callable(value):
                    state[(module_name, attr)] = value
    return state


def test_uninstall_restores_the_originals():
    before = _entry_point_state()
    with installed(LayerTracer()):
        during = _entry_point_state()
    after = _entry_point_state()

    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) >= sum(len(names) for *_, names in ENTRY_POINTS)
    assert all(after[key] is before[key] for key in before)


def test_judge_fails_every_cell_of_a_mismatched_sample():
    good = {"cells": 5, "failed_cells": 0, "digest": "a", "problems": []}
    other = dict(good, digest="b")
    verdict = bench_e2e.judge("background", 3, [good, other, None, good])
    assert verdict["digest"] == "a"
    assert verdict["attempted"] == 5 + 5 + 1 + 5
    assert verdict["failed"] == 5 + 1


def test_benchmark_spec_matches_the_harness():
    spec = json.loads((Path(bench_e2e.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    digests = json.loads(bench_e2e.DIGESTS_PATH.read_text())
    assert sorted(digests) == sorted(WORKLOADS)
    declared = {m["name"] for m in spec["per_layer"]}
    produced = set(LayerTracer().metrics(1.0)) | {
        "faults.injections",
        "faults.retries",
        "runner.overhead_s",
        "trace.overhead_frac",
    }
    assert declared == produced
    assert {f"{layer}.share" for layer in LAYERS} <= declared

"""Unit tests for the background-traffic engine (:mod:`repro.cloud.traffic`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.fleet import InstanceState
from repro.cloud.traffic import (
    PATTERN_KINDS,
    BackgroundDriver,
    TenantPopulation,
    TrafficConfig,
)
from repro.errors import CloudError
from repro.telemetry import Telemetry, telemetry_context


def small_config(**overrides) -> TrafficConfig:
    defaults = dict(
        n_tenants=6,
        seed=11,
        duration_s=4 * units.MINUTE,
        evaluation_period_s=15.0,
        mean_concurrency=2.0,
        max_instances=5,
    )
    defaults.update(overrides)
    return TrafficConfig(**defaults)


class TestTrafficConfig:
    def test_negative_tenants_rejected(self):
        with pytest.raises(CloudError):
            TrafficConfig(n_tenants=-1)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(CloudError):
            TrafficConfig(duration_s=0.0)

    def test_nonpositive_period_rejected(self):
        with pytest.raises(CloudError):
            TrafficConfig(evaluation_period_s=-1.0)

    def test_pattern_weights_must_cover_every_kind(self):
        with pytest.raises(CloudError):
            TrafficConfig(pattern_weights=(1.0, 1.0))

    def test_size_weights_must_match_names(self):
        with pytest.raises(CloudError):
            TrafficConfig(size_names=("Pico",), size_weights=(0.5, 0.5))

    def test_unknown_size_rejected(self):
        with pytest.raises(CloudError):
            TrafficConfig(size_names=("Gargantuan",), size_weights=(1.0,))

    def test_max_instances_floor(self):
        with pytest.raises(CloudError):
            TrafficConfig(max_instances=0)


class TestTenantPopulation:
    def test_generate_is_deterministic(self):
        a = TenantPopulation.generate(small_config())
        b = TenantPopulation.generate(small_config())
        assert [s.account_id for s in a.specs] == [s.account_id for s in b.specs]
        assert [s.kind for s in a.specs] == [s.kind for s in b.specs]
        assert np.array_equal(a.demand, b.demand)
        assert np.array_equal(a.targets, b.targets)

    def test_different_seed_changes_schedules(self):
        a = TenantPopulation.generate(small_config(seed=1))
        b = TenantPopulation.generate(small_config(seed=2))
        assert not np.array_equal(a.demand, b.demand)

    def test_schedule_shape_covers_duration(self):
        config = small_config()
        population = TenantPopulation.generate(config)
        n_slots = int(config.duration_s / config.evaluation_period_s) + 1
        assert population.targets.shape == (config.n_tenants, n_slots)
        assert population.demand.shape == population.targets.shape

    def test_targets_are_clamped_and_nonnegative(self):
        population = TenantPopulation.generate(
            small_config(n_tenants=40, mean_concurrency=50.0, max_instances=3)
        )
        assert population.targets.min() >= 0
        assert population.targets.max() <= 3
        # A huge mean actually hits the clamp somewhere.
        assert (population.targets == 3).any()

    def test_targets_are_ceil_division_of_demand(self):
        population = TenantPopulation.generate(small_config(n_tenants=20))
        conc = np.asarray([s.concurrency for s in population.specs])
        expected = np.minimum(
            -(-population.demand // conc[:, None]),
            population.config.max_instances,
        )
        assert np.array_equal(population.targets, expected)

    def test_kinds_come_from_the_catalog(self):
        population = TenantPopulation.generate(small_config(n_tenants=30))
        assert {s.kind for s in population.specs} <= set(PATTERN_KINDS)

    def test_phases_stay_inside_one_period(self):
        config = small_config(n_tenants=30)
        population = TenantPopulation.generate(config)
        for spec in population.specs:
            assert 0.0 <= spec.phase_s < config.evaluation_period_s

    def test_empty_population(self):
        population = TenantPopulation.generate(small_config(n_tenants=0))
        assert population.n_tenants == 0
        assert population.targets.shape[0] == 0


class TestBackgroundDriver:
    def drive(self, env, config=None):
        config = config or small_config()
        population = TenantPopulation.generate(config)
        driver = BackgroundDriver(env.orchestrator, population)
        driver.start()
        return driver

    def test_start_deploys_one_service_per_tenant(self, tiny_env):
        before = len(tiny_env.orchestrator.services)
        driver = self.drive(tiny_env)
        assert len(tiny_env.orchestrator.services) == before + driver.population.n_tenants

    def test_double_start_rejected(self, tiny_env):
        driver = self.drive(tiny_env)
        with pytest.raises(CloudError):
            driver.start()

    def test_sleep_drains_every_scheduled_evaluation(self, tiny_env):
        config = small_config()
        driver = self.drive(tiny_env, config)
        tiny_env.clock.sleep(config.duration_s + config.evaluation_period_s)
        population = driver.population
        # Each tenant evaluates every slot whose nominal time (phase plus
        # slot cadence) falls inside the traffic horizon.
        expected = sum(
            sum(
                1
                for k in range(population.n_slots)
                if spec.phase_s + k * config.evaluation_period_s
                <= config.duration_s
            )
            for spec in population.specs
        )
        assert driver.stats.evaluations == expected

    def test_active_counts_track_targets(self, tiny_env):
        config = small_config()
        driver = self.drive(tiny_env, config)
        # Sleep to halfway between slots so no group sits on a boundary.
        period = config.evaluation_period_s
        elapsed = 6 * period + period / 2
        tiny_env.clock.sleep(elapsed)
        state = tiny_env.orchestrator.instance_store
        for spec in driver.population.specs:
            index = state.index_of(f"{spec.account_id}/{spec.service_name}")
            slot = int((elapsed - spec.phase_s) // period)
            slot = min(slot, driver.population.n_slots - 1)
            assert state.active_count(index) == driver.population.targets[
                spec.index, slot
            ]

    def test_stop_cancels_future_evaluations(self, tiny_env):
        config = small_config()
        driver = self.drive(tiny_env, config)
        tiny_env.clock.sleep(config.evaluation_period_s)
        seen = driver.stats.evaluations
        driver.stop()
        tiny_env.clock.sleep(config.duration_s)
        assert driver.stats.evaluations == seen

    def test_stats_mirror_telemetry_counters(self, tiny_env_factory):
        telemetry = Telemetry()
        with telemetry_context(telemetry):
            env = tiny_env_factory()
            config = small_config()
            driver = BackgroundDriver(
                env.orchestrator, TenantPopulation.generate(config)
            )
            driver.start()
            env.clock.sleep(config.duration_s + config.evaluation_period_s)
        metrics = telemetry.metrics
        assert metrics.counter("traffic.evaluations") == driver.stats.evaluations
        assert metrics.counter("traffic.requests") == driver.stats.requests
        assert driver.stats.rejected == 0

    def test_background_instances_counts_alive(self, tiny_env):
        config = small_config()
        driver = self.drive(tiny_env, config)
        tiny_env.clock.sleep(5 * config.evaluation_period_s)
        alive = [
            i
            for i in tiny_env.orchestrator.instances.values()
            if i.state is not InstanceState.TERMINATED
            and i.service.account_id.startswith("bg-")
        ]
        assert driver.background_instances() == len(alive)
        if alive:
            assert 0.0 < driver.utilization() <= 1.0

    def test_identical_seeds_reproduce_the_world(self, tiny_env_factory):
        def final_state(env):
            config = small_config()
            driver = BackgroundDriver(
                env.orchestrator, TenantPopulation.generate(config)
            )
            driver.start()
            env.clock.sleep(config.duration_s + config.evaluation_period_s)
            state = env.orchestrator.instance_store
            counts = [
                state.active_count(state.index_of(f"{s.account_id}/svc"))
                for s in driver.population.specs
            ]
            return counts, driver.stats

        counts_a, stats_a = final_state(tiny_env_factory())
        counts_b, stats_b = final_state(tiny_env_factory())
        assert counts_a == counts_b
        assert stats_a == stats_b

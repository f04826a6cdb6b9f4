"""Unit tests for request workload patterns and request-driven scaling."""

import numpy as np
import pytest

from repro import units
from repro.cloud.services import ServiceConfig
from repro.cloud.workloads import (
    BurstLoad,
    ConstantLoad,
    DiurnalLoad,
    PoissonLoad,
    TraceLoad,
)

from tests.conftest import follow_pattern


class TestPatterns:
    def test_constant(self):
        assert ConstantLoad(7).concurrency_at(0) == 7
        assert ConstantLoad(7).concurrency_at(1e6) == 7

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLoad(-1)

    def test_diurnal_trough_and_peak(self):
        load = DiurnalLoad(trough=10, peak=100, period_s=units.DAY)
        assert load.concurrency_at(0) == 10
        assert load.concurrency_at(units.DAY / 2) == 100
        assert load.concurrency_at(units.DAY) == 10

    def test_diurnal_midpoint(self):
        load = DiurnalLoad(trough=0, peak=100, period_s=units.DAY)
        assert load.concurrency_at(units.DAY / 4) == 50

    def test_diurnal_validation(self):
        with pytest.raises(ValueError):
            DiurnalLoad(trough=10, peak=5)
        with pytest.raises(ValueError):
            DiurnalLoad(trough=1, peak=2, period_s=0)

    def test_burst_window(self):
        load = BurstLoad(base=5, burst=50, burst_start_s=100.0, burst_duration_s=60.0)
        assert load.concurrency_at(99.0) == 5
        assert load.concurrency_at(100.0) == 50
        assert load.concurrency_at(159.0) == 50
        assert load.concurrency_at(160.0) == 5

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            BurstLoad(base=10, burst=5, burst_start_s=0, burst_duration_s=1)

    def test_trace_holds_last_value(self):
        trace = TraceLoad([0.0, 10.0, 20.0], [5, 8, 3])
        assert trace.concurrency_at(0.0) == 5
        assert trace.concurrency_at(9.9) == 5
        assert trace.concurrency_at(10.0) == 8
        assert trace.concurrency_at(15.0) == 8
        assert trace.concurrency_at(99.0) == 3

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            TraceLoad([0.0, 1.0], [1])
        with pytest.raises(ValueError):
            TraceLoad([], [])
        with pytest.raises(ValueError):
            TraceLoad([1.0, 0.5], [1, 2])

    def test_bursty_trace_generator(self):
        trace = TraceLoad.bursty(
            duration_s=600.0, step_s=10.0, base=20,
            rng=np.random.default_rng(3),
        )
        values = [trace.concurrency_at(t) for t in range(0, 600, 10)]
        assert all(v >= 0 for v in values)
        # The baseline hovers near base and bursts exceed it sharply.
        assert 10 < np.median(values) < 30
        assert max(values) > 2 * np.median(values)

    def test_poisson_mean(self):
        load = PoissonLoad(
            arrivals_per_s=50.0, service_time_s=0.2, rng=np.random.default_rng(1)
        )
        samples = [load.concurrency_at(t) for t in range(500)]
        assert np.mean(samples) == pytest.approx(10.0, rel=0.15)


class TestAutoscaler:
    def make(self, env):
        return env.orchestrator.deploy_service("account-1", ServiceConfig(name="auto"))

    def test_follows_constant_load(self, tiny_env):
        service = self.make(tiny_env)
        points = follow_pattern(tiny_env.orchestrator, service, ConstantLoad(12), 60.0)
        assert all(p.active == 12 for p in points[1:])

    def test_target_respects_per_instance_concurrency(self):
        config = ServiceConfig(name="auto", concurrency=10)
        assert config.target_for(95) == 10
        assert config.target_for(100) == 10
        assert config.target_for(101) == 11

    def test_target_clamped_to_max_instances(self):
        assert ServiceConfig(name="auto", max_instances=20).target_for(10_000) == 20

    def test_scale_out_and_in_on_burst(self, tiny_env):
        service = self.make(tiny_env)
        pattern = BurstLoad(base=4, burst=20, burst_start_s=60.0, burst_duration_s=120.0)
        points = follow_pattern(tiny_env.orchestrator, service, pattern, 300.0)
        assert max(p.active for p in points) == 20
        assert all(p.active == 4 for p in points if p.elapsed_s > 200)

    def test_scaled_in_instances_idle_then_die(self, tiny_env):
        service = self.make(tiny_env)
        orch = tiny_env.orchestrator
        follow_pattern(orch, service, ConstantLoad(15), 30.0)
        orch.scale_to(service, 5)
        alive = orch.alive_instances(service)
        assert len(alive) == 15  # extras idle, not dead
        tiny_env.clock.sleep(tiny_env.datacenter.profile.idle_deadline + 1)
        assert len(orch.alive_instances(service)) == 5

    def test_diurnal_trace_shape(self, tiny_env):
        service = self.make(tiny_env)
        pattern = DiurnalLoad(trough=2, peak=16, period_s=20 * units.MINUTE)
        points = follow_pattern(tiny_env.orchestrator, service, pattern, 20 * units.MINUTE)
        assert max(p.active for p in points) >= 15
        assert min(p.active for p in points) <= 3

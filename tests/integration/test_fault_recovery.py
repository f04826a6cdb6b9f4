"""Integration tests: fault-injected runs recover to fault-free results.

The recovery machinery (launch retries, CTest re-runs, cell retries) is
only worth having if a run under injected platform noise converges to the
same *answer* as a clean run — these tests pin that end to end.
"""

from repro.core.covert import RngCovertChannel
from repro.core.verification import ScalableVerifier
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.cloud.services import ServiceConfig
from repro.experiments.launch_behavior import _distribution_cell
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.runner import CellSpec, RunnerConfig, run_cells


def launch_and_tag(env, n, name="svc"):
    client = env.attacker
    service = client.deploy(ServiceConfig(name=name))
    handles = client.connect(service, n)
    return fingerprint_gen1_instances(handles, p_boot=1.0)


def clusters_of(report):
    return {
        frozenset(h.instance_id for h in cluster) for cluster in report.clusters
    }


class TestNoisyVerification:
    def test_noisy_channel_reaches_clean_clusters(self, tiny_env_factory):
        """CTest noise and mid-test deaths, with a bigger retry budget,
        must converge to the clusters a fault-free run finds."""
        clean_env = tiny_env_factory(seed=7)
        clean = ScalableVerifier(RngCovertChannel()).verify(
            launch_and_tag(clean_env, 40)
        )

        noisy_env = tiny_env_factory(seed=7)
        plan = FaultPlan(FaultSpec(ctest_noise_rate=0.01, ctest_death_rate=0.02, seed=3))
        channel = RngCovertChannel(fault_plan=plan)
        noisy = ScalableVerifier(
            channel, retry_policy=RetryPolicy(max_retries=4)
        ).verify(launch_and_tag(noisy_env, 40))

        assert plan.counters.total_injected > 0  # the drill actually fired
        assert clusters_of(noisy) == clusters_of(clean)

    def test_noise_costs_extra_tests_not_accuracy(self, tiny_env_factory):
        clean_env = tiny_env_factory(seed=13)
        clean = ScalableVerifier(RngCovertChannel()).verify(
            launch_and_tag(clean_env, 30)
        )
        noisy_env = tiny_env_factory(seed=13)
        plan = FaultPlan(FaultSpec(ctest_noise_rate=0.03, seed=5))
        channel = RngCovertChannel(fault_plan=plan)
        noisy = ScalableVerifier(
            channel, retry_policy=RetryPolicy(max_retries=4)
        ).verify(launch_and_tag(noisy_env, 30))
        assert clusters_of(noisy) == clusters_of(clean)
        assert noisy.n_tests >= clean.n_tests


class TestLaunchFaultRecovery:
    def test_launch_faults_recovered_by_retries(self, tiny_env_factory):
        plan = FaultPlan(
            FaultSpec(launch_error_rate=0.2, slow_launch_rate=0.1, seed=2)
        )
        env = tiny_env_factory(seed=9, fault_plan=plan)
        client = env.attacker
        service = client.deploy(ServiceConfig(name="svc"))
        handles = client.connect(service, 30)
        # Every requested instance arrived despite injected launch errors.
        assert len(handles) == 30
        assert all(h.alive for h in handles)
        assert plan.counters.launch_errors > 0
        assert plan.counters.launch_retries > 0
        assert plan.counters.slow_launches > 0

    def test_slow_launches_cost_wall_time_only(self, tiny_env_factory):
        clean_env = tiny_env_factory(seed=9)
        clean_client = clean_env.attacker
        clean_client.connect(clean_client.deploy(ServiceConfig(name="svc")), 20)

        plan = FaultPlan(FaultSpec(slow_launch_rate=0.5, slow_launch_seconds=4.0, seed=1))
        slow_env = tiny_env_factory(seed=9, fault_plan=plan)
        slow_client = slow_env.attacker
        handles = slow_client.connect(
            slow_client.deploy(ServiceConfig(name="svc")), 20
        )
        assert len(handles) == 20
        assert plan.counters.slow_launches > 0
        assert slow_env.clock.now() > clean_env.clock.now()


class TestCellFaultRecovery:
    def _specs(self):
        params = {"region": "us-east1", "instances": 60}
        return [
            CellSpec(
                experiment="exp1-test",
                fn=_distribution_cell,
                config=params,
                seed=seed,
                label=f"seed-{seed}",
            )
            for seed in (101, 202)
        ]

    def test_cell_faults_reach_identical_values(self):
        """Cells that fail and are retried yield byte-identical values to a
        fault-free run: injection happens *before* the cell computes, and
        the cell's randomness derives only from its seed."""
        clean = run_cells(self._specs())
        runner = RunnerConfig(
            fault_plan=FaultPlan(FaultSpec(cell_error_rate=0.5, seed=4)),
            max_retries=5,
        )
        faulted = run_cells(self._specs(), runner)
        assert all(r.ok for r in faulted)
        assert [r.value_digest() for r in faulted] == [
            r.value_digest() for r in clean
        ]

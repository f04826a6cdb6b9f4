"""Integration tests running every experiment driver at reduced scale.

These don't assert the paper's exact numbers (the benchmarks do that at
full scale); they assert each driver's qualitative result holds and its
output is well-formed.
"""


import pytest

from repro.experiments import (
    attack_cost,
    census,
    coverage,
    expiration,
    fingerprint_accuracy,
    frequency_noise,
    gen2_accuracy,
    helper_episodes,
    idle_termination,
    launch_behavior,
    verification_cost,
)
from tests.oracles.ground_truth import oracle_campaign


class TestFig4Accuracy:
    @pytest.fixture(scope="class")
    def result(self):
        config = fingerprint_accuracy.AccuracyConfig(
            regions=("us-east1",),
            repetitions=1,
            instances=200,
            p_boot_grid=(1e-3, 1e-1, 1.0, 1e3),
        )
        return fingerprint_accuracy.run(config)

    def test_sweet_spot_near_perfect(self, result):
        assert result.point(1.0).fmi_mean > 0.99

    def test_fine_precision_hurts_recall(self, result):
        assert result.point(1e-3).recall_mean < result.point(1.0).recall_mean

    def test_coarse_precision_hurts_precision(self, result):
        assert result.point(1e3).precision_mean < result.point(1.0).precision_mean

    def test_run_fmis_recorded(self, result):
        assert len(result.run_fmis_at_1s) == 1


class TestGen2Accuracy:
    def test_recall_perfect_precision_imperfect(self):
        config = gen2_accuracy.Gen2AccuracyConfig(
            regions=("us-east1",), repetitions=1, instances=300
        )
        result = gen2_accuracy.run(config)
        assert result.recall_mean == 1.0
        assert result.precision_mean < 1.0
        assert result.hosts_per_fingerprint_mean > 1.0


class TestFig5Expiration:
    def test_linear_drift_and_day_scale_expiry(self):
        config = expiration.ExpirationConfig(
            regions=("us-east1",), n_launch=60, duration_days=2.0, cadence_hours=4.0
        )
        result = expiration.run(config)
        region = result.regions[0]
        assert region.n_histories >= 30
        assert region.min_abs_r > 0.999
        assert 0.05 < region.days_to_10pct_expired < 30
        cdf = region.cdf((1.0, 3.0, 7.0))
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))


class TestFig6Idle:
    def test_grace_then_gradual_decay(self):
        result = idle_termination.run(
            idle_termination.IdleTerminationConfig(instances=150)
        )
        assert result.remaining_after(1.9) == 150
        assert 0 < result.remaining_after(7.0) < 150
        assert result.remaining_after(12.5) == 0

    def test_termination_times_within_documented_bound(self):
        result = idle_termination.run(
            idle_termination.IdleTerminationConfig(instances=100)
        )
        assert len(result.termination_times_min) == 100
        assert max(result.termination_times_min) <= 15.0


class TestLaunchBehavior:
    def test_exp1_distribution(self):
        result = launch_behavior.run_distribution(
            launch_behavior.DistributionConfig(instances=400)
        )
        # 400 instances over 75 base hosts: 5-6 each.
        assert result.n_hosts == 75
        assert result.max_per_host - result.min_per_host <= 1

    def test_fig7_flat_cumulative(self):
        result = launch_behavior.run_launch_series(
            launch_behavior.LaunchSeriesConfig(launches=3, instances=150)
        )
        assert result.growth <= 3

    def test_fig8_steps_at_account_changes(self):
        result = launch_behavior.run_launch_series(
            launch_behavior.LaunchSeriesConfig(
                launches=4,
                instances=150,
                account_pattern=(1, 1, 2, 2),
            )
        )
        jumps = result.growth_at_account_changes()
        assert len(jumps) == 1
        assert jumps[0] > 30  # a new account's base hosts appear at once

    def test_fig9_short_interval_growth(self):
        result = launch_behavior.run_launch_series(
            launch_behavior.LaunchSeriesConfig(
                launches=4, instances=400, interval=600.0
            )
        )
        assert result.growth > 20

    def test_interval_sweep_ordering(self):
        results = launch_behavior.run_interval_sweep(
            launch_behavior.IntervalSweepConfig(
                intervals_minutes=(2.0, 10.0, 45.0), launches=3, instances=300
            )
        )
        assert results[45.0].growth <= results[2.0].growth < results[10.0].growth


class TestFig10Episodes:
    def test_overlapping_helper_sets(self):
        result = helper_episodes.run(
            helper_episodes.EpisodesConfig(
                episodes=3, launches_per_episode=3, instances=300
            )
        )
        assert len(result.per_episode_helpers) == 3
        assert result.cumulative_helpers[-1] > result.cumulative_helpers[0]
        assert result.overlapping


class TestCoverage:
    def test_optimized_cell_oracle(self):
        config = coverage.CoverageConfig(region="us-west1", victim_account="account-2")
        covered, _hosts, _cost = oracle_campaign(
            coverage._cell_params(config), config.base_seed
        )
        assert covered > 0.9

    def test_naive_cell_zero_in_east(self):
        cell = coverage.run_cell(
            coverage.CoverageConfig(
                region="us-east1",
                victim_account="account-2",
                strategy="naive",
                repetitions=1,
            )
        )
        assert cell.mean == 0.0


class TestCensus:
    def test_census_flattens_and_bounds(self):
        summary = census.run(
            census.CensusConfig(
                regions=("us-west1",),
                services_per_account=2,
                launches_per_service=2,
                instances_per_launch=400,
            )
        )
        region = summary.regions[0]
        assert region.total_hosts > 100
        assert 0 < region.attacker_share <= 1.1


class TestFrequencyNoise:
    def test_problematic_fraction_near_10pct(self):
        result = frequency_noise.run(
            frequency_noise.FrequencyNoiseConfig(regions=("us-east1",), instances=400)
        )
        assert result.n_hosts >= 70
        assert 0.7 < result.quiet_fraction < 1.0
        assert 0.02 < result.problematic_fraction < 0.25


class TestVerificationCost:
    def test_scalable_beats_pairwise(self):
        result = verification_cost.run(
            verification_cost.VerificationCostConfig(instances=200, pairwise_sample=20)
        )
        assert result.scalable_tests < result.pairwise_tests_modeled / 50
        assert result.scalable_usd < result.pairwise_usd_modeled / 50
        assert result.sie_eliminated == 0
        assert result.speedup > 10


class TestAttackCost:
    def test_cost_scale(self):
        result = attack_cost.run(
            attack_cost.AttackCostConfig(
                regions=("us-east1",), repetitions=1, n_services=2, launches=3,
                instances=200,
            )
        )
        cost = result.mean_cost_usd["us-east1"]
        assert 0.1 < cost < 30.0

    def test_ablation_monotone_in_services(self):
        results = attack_cost.run_ablation(
            attack_cost.AblationConfig(
                services_grid=(1, 3), launches_grid=(3,), instances=200
            )
        )
        cost1, hosts1 = results[(1, 3)]
        cost3, hosts3 = results[(3, 3)]
        assert cost3 > cost1
        assert hosts3 >= hosts1


class TestSurveillance:
    def test_sustained_coverage_and_costs(self):
        from repro.experiments import surveillance as sv

        result = sv.run(sv.SurveillanceConfig(duration_hours=2.0))
        assert len(result.series) == 2
        assert result.min_coverage > 0.8
        assert result.setup_cost_usd > 0
        assert result.maintenance_cost_usd > 0
        # Victim fleet breathes with the diurnal load.
        counts = [n for _h, n, _c in result.series]
        assert max(counts) > min(counts)

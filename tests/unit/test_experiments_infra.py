"""Unit tests for experiment infrastructure: env builder, ground truth,
report formatting."""

from repro.experiments.base import ATTACKER_ACCOUNT, VICTIM_ACCOUNTS, default_env
from repro.experiments.report import ComparisonRow, format_comparison, format_series, pct
from repro.cloud.services import ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier

from tests.conftest import tiny_profile
from tests.oracles.ground_truth import oracle_clusters, partition


class TestDefaultEnv:
    def test_builds_three_accounts(self):
        env = default_env(profile=tiny_profile(), seed=1)
        assert set(env.clients) == {ATTACKER_ACCOUNT, *VICTIM_ACCOUNTS}
        assert env.attacker.account_id == "account-1"
        assert env.victim().account_id == "account-2"

    def test_region_name(self):
        env = default_env(profile=tiny_profile(), seed=1)
        assert env.region == "tiny"

    def test_named_region_lookup(self):
        env = default_env("test-region1", seed=1)
        assert env.region == "test-region1"

    def test_seed_determinism(self):
        def footprint(seed):
            env = default_env(profile=tiny_profile(), seed=seed)
            client = env.attacker
            name = client.deploy(ServiceConfig(name="d"))
            handles = client.connect(name, 10)
            return sorted(
                env.orchestrator.true_host_of(h.instance_id) for h in handles
            )

        assert footprint(5) == footprint(5)
        assert footprint(5) != footprint(6)


class TestGroundTruth:
    def launch(self, env, n=12):
        client = env.attacker
        name = client.deploy(ServiceConfig(name="gt"))
        handles = client.connect(name, n)
        return fingerprint_gen1_instances(handles, p_boot=1.0)

    def test_oracle_matches_simulator(self):
        env = default_env(profile=tiny_profile(), seed=2)
        pairs = self.launch(env)
        truth = oracle_clusters(env.orchestrator, pairs)
        for handle, _fp in pairs:
            assert truth[handle.instance_id] == env.orchestrator.true_host_of(
                handle.instance_id
            )

    def test_covert_agrees_with_oracle(self):
        env = default_env(profile=tiny_profile(), seed=3)
        pairs = self.launch(env, n=20)
        covert = ScalableVerifier(RngCovertChannel()).verify(pairs).cluster_index()
        oracle = oracle_clusters(env.orchestrator, pairs)
        assert partition(covert) == partition(oracle)


class TestReportFormatting:
    def test_comparison_contains_all_rows(self):
        text = format_comparison(
            "title", [ComparisonRow("a", "1", "2"), ComparisonRow("b", "3", "4")]
        )
        assert "title" in text
        for token in ("a", "b", "1", "2", "3", "4", "paper", "measured"):
            assert token in text

    def test_series_formats_floats(self):
        text = format_series("s", ("x", "y"), [(1, 0.123456), (2, 3.0)])
        assert "0.1235" in text
        assert "s" in text

    def test_pct(self):
        assert pct(0.613) == "61.3%"
        assert pct(1.0) == "100.0%"

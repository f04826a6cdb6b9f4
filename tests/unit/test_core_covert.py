"""Unit tests for the RNG covert channel (CTest primitive)."""

import pytest

from repro.cloud.services import ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.errors import VerificationError


def launch(env, n, name="svc", account="account-1"):
    client = env.clients[account]
    service = client.deploy(ServiceConfig(name=name))
    return client.connect(service, n), env.orchestrator


def split_by_host(handles, orch):
    by_host = {}
    for h in handles:
        by_host.setdefault(orch.true_host_of(h.instance_id), []).append(h)
    return by_host


class TestRngCovertChannel:
    def test_colocated_pair_tests_positive(self, tiny_env):
        handles, orch = launch(tiny_env, 20)
        by_host = split_by_host(handles, orch)
        pair = next(hs for hs in by_host.values() if len(hs) >= 2)[:2]
        result = RngCovertChannel().ctest(pair, threshold_m=2)
        assert all(result.positive)

    def test_separated_pair_tests_negative(self, tiny_env):
        handles, orch = launch(tiny_env, 10)
        by_host = split_by_host(handles, orch)
        hosts = list(by_host.values())
        assert len(hosts) >= 2
        pair = [hosts[0][0], hosts[1][0]]
        result = RngCovertChannel().ctest(pair, threshold_m=2)
        assert not any(result.positive)

    def test_singleton_never_positive(self, tiny_env):
        handles, _orch = launch(tiny_env, 1)
        result = RngCovertChannel().ctest(handles, threshold_m=2)
        assert result.positive == (False,)

    def test_nway_mixed_result(self, tiny_env):
        handles, orch = launch(tiny_env, 20)
        by_host = split_by_host(handles, orch)
        hosts = sorted(by_host.values(), key=len, reverse=True)
        colocated = hosts[0][:2]
        loner = hosts[1][0]
        result = RngCovertChannel().ctest(colocated + [loner], threshold_m=2)
        assert result.positive[:2] == (True, True)
        assert result.positive[2] is False

    def test_threshold_m3_needs_three(self, tiny_env):
        handles, orch = launch(tiny_env, 30)
        by_host = split_by_host(handles, orch)
        trio_host = next(hs for hs in by_host.values() if len(hs) >= 3)
        pair_result = RngCovertChannel().ctest(trio_host[:2], threshold_m=3)
        assert not any(pair_result.positive)
        trio_result = RngCovertChannel().ctest(trio_host[:3], threshold_m=3)
        assert all(trio_result.positive)

    def test_pressure_released_after_test(self, tiny_env):
        handles, orch = launch(tiny_env, 5)
        RngCovertChannel().ctest(handles[:3], threshold_m=2)
        host_ids = {orch.true_host_of(h.instance_id) for h in handles[:3]}
        for host_id in host_ids:
            assert tiny_env.datacenter.host(host_id).rng_resource.pressurer_count == 0

    def test_batch_of_disjoint_groups(self, tiny_env):
        handles, orch = launch(tiny_env, 20)
        by_host = split_by_host(handles, orch)
        hosts = [hs for hs in by_host.values() if len(hs) >= 2]
        assert len(hosts) >= 2
        results = RngCovertChannel().ctest_batch(
            [hosts[0][:2], hosts[1][:2]], threshold_m=2
        )
        assert all(all(r.positive) for r in results)

    def test_duplicate_instance_in_batch_rejected(self, tiny_env):
        handles, _orch = launch(tiny_env, 3)
        channel = RngCovertChannel()
        with pytest.raises(VerificationError):
            channel.ctest_batch([[handles[0]], [handles[0]]], threshold_m=2)

    def test_threshold_below_two_rejected(self, tiny_env):
        handles, _orch = launch(tiny_env, 2)
        with pytest.raises(VerificationError):
            RngCovertChannel().ctest(handles, threshold_m=1)

    def test_invalid_round_config_rejected(self):
        with pytest.raises(VerificationError):
            RngCovertChannel(total_rounds=10, required_rounds=11)

    def test_per_group_thresholds_in_one_batch(self, tiny_env):
        """The threshold is per test: a pair at m=2 and a trio at m=3 can
        share one batch window and each is judged by its own bar."""
        handles, orch = launch(tiny_env, 30)
        by_host = split_by_host(handles, orch)
        hosts = sorted(by_host.values(), key=len, reverse=True)
        trio = hosts[0][:3]
        pair = hosts[1][:2]
        results = RngCovertChannel().ctest_batch([trio, pair], [3, 2])
        assert all(results[0].positive)
        assert all(results[1].positive)

    def test_pair_at_threshold_three_cannot_light_up(self, tiny_env):
        handles, orch = launch(tiny_env, 20)
        by_host = split_by_host(handles, orch)
        pair = next(hs for hs in by_host.values() if len(hs) >= 2)[:2]
        result = RngCovertChannel().ctest(pair, threshold_m=3)
        assert not any(result.positive)

    def test_threshold_count_mismatch_rejected(self, tiny_env):
        handles, _orch = launch(tiny_env, 4)
        with pytest.raises(VerificationError):
            RngCovertChannel().ctest_batch([handles[:2], handles[2:]], [2])

    def test_stats_accumulate(self, tiny_env):
        handles, _orch = launch(tiny_env, 4)
        channel = RngCovertChannel()
        channel.ctest(handles[:2], threshold_m=2)
        channel.ctest(handles[2:], threshold_m=2)
        assert channel.stats.counter("tests") == 2
        assert channel.stats.counter("busy_seconds") == pytest.approx(2 * channel.seconds_per_test)

    def test_batch_shares_wall_time(self, tiny_env):
        handles, orch = launch(tiny_env, 20)
        by_host = split_by_host(handles, orch)
        groups = [hs[:2] for hs in by_host.values() if len(hs) >= 2][:2]
        channel = RngCovertChannel()
        channel.ctest_batch(groups, threshold_m=2)
        assert channel.stats.counter("busy_seconds") == pytest.approx(channel.seconds_per_test)
        assert channel.stats.counter("tests") == len(groups)

"""Regression tests for the shared experiment oracle helpers.

``host_coverage`` is the scoring function behind every coverage/locator
number in the repo, so its dead-instance semantics are pinned explicitly:
terminated instances drop out of *both* sides (no KeyErrors, no silent
coverage skew), and empty inputs are well-defined rather than accidental.
"""

import numpy as np

from repro.cloud.services import ServiceConfig
from repro.experiments.base import host_coverage


def _deploy(env, client, name, n):
    service = client.deploy(ServiceConfig(name=name))
    return client.connect(service, n)


def _kill(env, handle):
    env.orchestrator._terminate([handle._instance.row], env.clock.now())


def _legacy_host_coverage(env, attacker_handles, victim_handles):
    """The pre-fix path: per-handle ``index_of`` loop, no victim filter."""
    fleet = env.datacenter.fleet
    orch = env.orchestrator
    attacker_mask = np.zeros(fleet.n_hosts, dtype=bool)
    for handle in attacker_handles:
        if handle.alive:
            index = fleet.index_of(orch.true_host_of(handle.instance_id))
            attacker_mask[index] = True
    victim_idx = fleet.indices_of(
        orch.true_host_of(handle.instance_id) for handle in victim_handles
    )
    if victim_idx.size == 0:
        return 0.0, int(attacker_mask.sum())
    return float(attacker_mask[victim_idx].mean()), int(attacker_mask.sum())


class TestHostCoverage:
    def test_vectorized_path_is_byte_identical_to_legacy(self, tiny_env):
        """With every instance alive, ``indices_of`` must reproduce the
        old per-handle ``index_of`` loop bit for bit."""
        attackers = _deploy(tiny_env, tiny_env.attacker, "atk", 20)
        victims = _deploy(tiny_env, tiny_env.victim(), "vic", 15)
        new = host_coverage(tiny_env, attackers, victims)
        old = _legacy_host_coverage(tiny_env, attackers, victims)
        assert new == old  # exact float equality, not approx

    def test_dead_victims_leave_the_denominator(self, tiny_env):
        attackers = _deploy(tiny_env, tiny_env.attacker, "atk", 20)
        victims = _deploy(tiny_env, tiny_env.victim(), "vic", 10)
        full, _hosts = host_coverage(tiny_env, attackers, victims)
        for handle in victims[5:]:
            _kill(tiny_env, handle)
        partial, _hosts = host_coverage(tiny_env, attackers, victims)
        live_only, _hosts = host_coverage(tiny_env, attackers, victims[:5])
        # Dead victims neither raise nor count as misses: scoring the
        # mixed list equals scoring only the survivors.
        assert partial == live_only
        assert 0.0 <= partial <= 1.0
        assert 0.0 <= full <= 1.0

    def test_dead_attackers_stop_contributing_hosts(self, tiny_env):
        attackers = _deploy(tiny_env, tiny_env.attacker, "atk", 20)
        victims = _deploy(tiny_env, tiny_env.victim(), "vic", 10)
        _cov, hosts_before = host_coverage(tiny_env, attackers, victims)
        for handle in attackers:
            _kill(tiny_env, handle)
        coverage, hosts_after = host_coverage(tiny_env, attackers, victims)
        assert hosts_before > 0
        assert hosts_after == 0
        assert coverage == 0.0

    def test_both_sides_filtered_symmetrically(self, tiny_env):
        """One dead instance per side: the score equals the all-alive
        score over the surviving handles."""
        attackers = _deploy(tiny_env, tiny_env.attacker, "atk", 12)
        victims = _deploy(tiny_env, tiny_env.victim(), "vic", 8)
        _kill(tiny_env, attackers[0])
        _kill(tiny_env, victims[0])
        mixed = host_coverage(tiny_env, attackers, victims)
        survivors = host_coverage(tiny_env, attackers[1:], victims[1:])
        assert mixed == survivors

    def test_empty_attackers(self, tiny_env):
        victims = _deploy(tiny_env, tiny_env.victim(), "vic", 5)
        coverage, hosts = host_coverage(tiny_env, [], victims)
        assert coverage == 0.0
        assert hosts == 0

    def test_empty_victims(self, tiny_env):
        attackers = _deploy(tiny_env, tiny_env.attacker, "atk", 5)
        coverage, hosts = host_coverage(tiny_env, attackers, [])
        assert coverage == 0.0
        assert hosts > 0

    def test_both_empty(self, tiny_env):
        assert host_coverage(tiny_env, [], []) == (0.0, 0)

    def test_all_victims_dead(self, tiny_env):
        attackers = _deploy(tiny_env, tiny_env.attacker, "atk", 5)
        victims = _deploy(tiny_env, tiny_env.victim(), "vic", 4)
        for handle in victims:
            _kill(tiny_env, handle)
        coverage, hosts = host_coverage(tiny_env, attackers, victims)
        assert coverage == 0.0
        assert hosts > 0

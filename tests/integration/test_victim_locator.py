"""Integration tests for the Target Victim Locator.

The acceptance bar from the campaign design: on a paper-scale tiny
profile the locator must name the co-resident attacker instance
(oracle-checked) in >= 95% of a 32-seed matrix, within O(log n_servers)
lock/probe rounds, with and without fault injection — and every
non-convergence must be a *structured* failure, never an exception.
"""

import math

import pytest

from repro import units
from repro.cloud.services import ServiceConfig
from repro.core.attack.locator import TargetVictimLocator, probe_latency_threshold
from repro.core.attack.strategies import optimized_launch
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier
from repro.faults import FaultPlan, FaultSpec, RetryPolicy

PROCESSING = 0.05
VICTIM_URL = "account-2/victim"
N_SEEDS = 32


def _campaign(tiny_env_factory, seed, fault_plan=None):
    """Optimized attacker launch + a one-instance uncontrolled victim."""
    env = tiny_env_factory(seed=seed, fault_plan=fault_plan)
    outcome = optimized_launch(
        env.attacker,
        n_services=3,
        launches=4,
        instances_per_service=16,
        interval_s=10 * units.MINUTE,
    )
    victim = env.victim()
    victim.deploy(ServiceConfig(name="victim"))
    victim.connect("victim", 1)
    return env, outcome


def _victim_host(env):
    orch = env.orchestrator
    instance = orch.alive_instances(orch.services[VICTIM_URL])[0]
    return orch.true_host_of(instance.instance_id)


def _pairs(handles):
    pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
    return [(handle, fp) for handle, fp in pairs if handle.alive]


def _locator(env, **overrides):
    kwargs = dict(
        probe=lambda: env.attacker.probe(VICTIM_URL, PROCESSING),
        latency_threshold_s=probe_latency_threshold(PROCESSING),
        verifier=ScalableVerifier(RngCovertChannel()),
        probes_per_measure=3,
    )
    kwargs.update(overrides)
    return TargetVictimLocator(**kwargs)


def _oracle_clusters(env, handles):
    """Ground-truth dedup (test-side only): live handles grouped by host."""
    orch = env.orchestrator
    groups = {}
    for handle in handles:
        if handle.alive:
            groups.setdefault(orch.true_host_of(handle.instance_id), []).append(handle)
    return list(groups.values())


def _is_co_resident(env, handle, victim_host):
    return env.orchestrator.true_host_of(handle.instance_id) == victim_host


def _rounds_bound(result):
    """O(log n) budget: per attempt, the all-locked pre-check + the
    cluster-level descent + the within-cluster descent + confirmation."""
    log_n = math.ceil(math.log2(max(2, result.initial_candidates)))
    return result.attempts * (log_n + 4)


class TestSeedMatrix:
    @pytest.mark.parametrize(
        "fault_rate", [0.0, 0.05], ids=["clean", "probe-noise"]
    )
    def test_locator_meets_acceptance_bar(self, tiny_env_factory, fault_rate):
        """32 seeds: >=95% oracle-confirmed hits among co-resident runs,
        every outcome correct, rounds within the O(log n) budget."""
        hits = co_resident_runs = correct = 0
        for seed in range(N_SEEDS):
            plan = None
            if fault_rate:
                plan = FaultPlan(FaultSpec(probe_noise_rate=fault_rate, seed=seed))
            env, outcome = _campaign(tiny_env_factory, seed, plan)
            result = _locator(env).locate(_pairs(outcome.handles))
            victim_host = _victim_host(env)
            truly_co_resident = any(
                _is_co_resident(env, handle, victim_host)
                for handle in outcome.handles
                if handle.alive
            )

            assert result.rounds <= _rounds_bound(result)
            assert result.dedup is not None
            assert result.initial_candidates == len(result.dedup.clusters)
            if truly_co_resident:
                co_resident_runs += 1
                if result.converged and _is_co_resident(
                    env, result.located, victim_host
                ):
                    hits += 1
                    correct += 1
            elif not result.converged and result.failure == "no_colocation":
                correct += 1

        assert co_resident_runs > 0
        assert hits / co_resident_runs >= 0.95
        assert correct == N_SEEDS


class TestStructuredFailures:
    def test_no_colocation_reported_not_raised(self, tiny_env_factory):
        """A cold-launched attacker stays in its account's shard, disjoint
        from the victim's shard — the all-locked pre-check must prove the
        negative in one round instead of searching."""
        env = tiny_env_factory(seed=7)
        env.attacker.deploy(ServiceConfig(name="cold"))
        handles = env.attacker.connect("cold", 8)
        env.victim().deploy(ServiceConfig(name="victim"))
        env.victim().connect("victim", 1)
        victim_host = _victim_host(env)
        assert not any(_is_co_resident(env, h, victim_host) for h in handles)

        result = _locator(env).locate(_pairs(handles))
        assert not result.converged
        assert result.located is None
        assert result.failure == "no_colocation"
        assert result.locked_latency_s < probe_latency_threshold(PROCESSING)

    def test_all_candidates_dead_before_search(self, tiny_env_factory):
        env, outcome = _campaign(tiny_env_factory, seed=3)
        clusters = _oracle_clusters(env, outcome.handles)
        for cluster in clusters:
            for handle in cluster:
                env.orchestrator._terminate([handle._instance.row], env.clock.now())
        result = _locator(env).locate_clusters(clusters)
        assert not result.converged
        assert result.failure == "candidates_died"
        assert result.probes == 0

    def test_all_candidates_die_mid_search(self, tiny_env_factory):
        """Killing every candidate mid-descent must end in a structured
        ``candidates_died`` — dead lockers release their bus pressure, so
        no exception and no phantom slow probes."""
        env, outcome = _campaign(tiny_env_factory, seed=5)
        clusters = _oracle_clusters(env, outcome.handles)
        calls = {"n": 0}

        def probe():
            calls["n"] += 1
            if calls["n"] == 7:  # first probe of the first descent round
                for cluster in clusters:
                    for handle in cluster:
                        if handle.alive:
                            env.orchestrator._terminate(
                                [handle._instance.row], env.clock.now()
                            )
            return env.attacker.probe(VICTIM_URL, PROCESSING)

        locator = TargetVictimLocator(
            probe=probe,
            latency_threshold_s=probe_latency_threshold(PROCESSING),
            probes_per_measure=3,
        )
        result = locator.locate_clusters(clusters)
        assert not result.converged
        assert result.located is None
        assert result.failure == "candidates_died"


class TestFaultTolerance:
    def test_survives_innocent_candidate_death_mid_search(self, tiny_env_factory):
        """A non-co-resident cluster dying mid-search just drops out;
        the descent still pins the true co-resident instance."""
        env, outcome = _campaign(tiny_env_factory, seed=11)
        victim_host = _victim_host(env)
        clusters = _oracle_clusters(env, outcome.handles)
        innocent = next(
            cluster
            for cluster in clusters
            if not _is_co_resident(env, cluster[0], victim_host)
        )
        calls = {"n": 0}

        def probe():
            calls["n"] += 1
            if calls["n"] == 8:  # mid first descent round
                for handle in innocent:
                    if handle.alive:
                        env.orchestrator._terminate([handle._instance.row], env.clock.now())
            return env.attacker.probe(VICTIM_URL, PROCESSING)

        locator = TargetVictimLocator(
            probe=probe,
            latency_threshold_s=probe_latency_threshold(PROCESSING),
            probes_per_measure=3,
        )
        result = locator.locate_clusters(clusters)
        assert result.converged
        assert _is_co_resident(env, result.located, victim_host)

    def test_survives_dedup_merge_error(self, tiny_env_factory):
        """An over-merged cluster (two servers fused) is corrected by the
        within-cluster phase: the located instance is truly co-resident,
        not just a member of the hot merged blob."""
        env, outcome = _campaign(tiny_env_factory, seed=13)
        victim_host = _victim_host(env)
        clusters = _oracle_clusters(env, outcome.handles)
        hot_index = next(
            i
            for i, cluster in enumerate(clusters)
            if _is_co_resident(env, cluster[0], victim_host)
        )
        other_index = (hot_index + 1) % len(clusters)
        merged = [clusters[hot_index] + clusters[other_index]] + [
            cluster
            for i, cluster in enumerate(clusters)
            if i not in (hot_index, other_index)
        ]

        result = _locator(env).locate_clusters(merged)
        assert result.converged
        assert _is_co_resident(env, result.located, victim_host)

    def test_survives_dedup_split_error(self, tiny_env_factory):
        """An over-split server (its instances scattered into singleton
        clusters) still converges — one of the fragments wins."""
        env, outcome = _campaign(tiny_env_factory, seed=17)
        victim_host = _victim_host(env)
        clusters = _oracle_clusters(env, outcome.handles)
        split = []
        for cluster in clusters:
            if _is_co_resident(env, cluster[0], victim_host):
                split.extend([handle] for handle in cluster)
            else:
                split.append(cluster)

        result = _locator(env).locate_clusters(split)
        assert result.converged
        assert _is_co_resident(env, result.located, victim_host)

    def test_clean_and_faulted_campaigns_agree(self, tiny_env_factory):
        """PR-2 convergence convention: the same seed run clean and under
        combined probe-noise + ctest-noise faults locates the same host,
        and the fault plan demonstrably fired."""
        seed = 3

        def run(plan):
            env, outcome = _campaign(tiny_env_factory, seed, plan)
            channel = RngCovertChannel() if plan is None else RngCovertChannel(
                fault_plan=plan
            )
            verifier = (
                ScalableVerifier(channel)
                if plan is None
                else ScalableVerifier(channel, retry_policy=RetryPolicy(max_retries=4))
            )
            result = _locator(env, verifier=verifier).locate(_pairs(outcome.handles))
            assert result.converged
            return env.orchestrator.true_host_of(result.located.instance_id)

        clean_host = run(None)
        plan = FaultPlan(
            FaultSpec(probe_noise_rate=0.1, ctest_noise_rate=0.05, seed=seed)
        )
        faulted_host = run(plan)
        assert faulted_host == clean_host
        assert plan.counters.total_injected > 0

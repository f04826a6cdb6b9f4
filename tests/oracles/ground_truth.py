"""Co-location read from the placement map (reference for the covert verifier).

Every figure verifies co-location the way the paper does: fingerprint
the instances, then run covert-channel tests
(:class:`repro.core.verification.ScalableVerifier`).  The simulator also
knows the answer: each instance's true host.  Reading it gives what a
perfect verifier would, so the twin suite pins the covert path to it,
and tests that only need a partition can take it cheaply.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.cloud.api import InstanceHandle
from repro.cloud.orchestrator import Orchestrator
from repro.cloud.services import ServiceConfig
from repro.experiments.base import default_env, host_coverage
from repro.experiments.coverage import CoverageConfig, _strategy_fn


def oracle_clusters(
    orchestrator: Orchestrator, pairs: Iterable[tuple[InstanceHandle, Hashable]]
) -> dict[str, str]:
    """Instance id -> true host id of each ``(handle, fingerprint)`` pair."""
    return {
        handle.instance_id: orchestrator.true_host_of(handle.instance_id)
        for handle, _fp in pairs
    }


def partition(labels: Mapping[str, Hashable]) -> set[frozenset[str]]:
    """The instance-id sets that share a label (labels themselves differ
    between the verifier's cluster indices and the map's host ids)."""
    members: dict[Hashable, set[str]] = {}
    for instance_id, label in labels.items():
        members.setdefault(label, set()).add(instance_id)
    return {frozenset(ids) for ids in members.values()}


def oracle_campaign(params: dict, seed: int) -> tuple[float, int, float]:
    """:func:`repro.experiments.coverage._rep_cell`, scored from the map.

    The same world, launching strategy and victim scale-out, but neither
    fingerprints nor CTests: coverage and attacker hosts come from each
    live instance's true host (:func:`~repro.experiments.base.host_coverage`).
    Returns ``(coverage, hosts, cost_usd)``.
    """
    config = CoverageConfig(repetitions=1, base_seed=seed, **params)
    env = default_env(config.region, seed=seed)
    outcome = _strategy_fn(config)(env.attacker)
    victim = env.victim(config.victim_account)
    service = victim.deploy(
        ServiceConfig(
            name="victim",
            size=config.victim_size,
            generation=config.generation,
            max_instances=max(100, config.n_victim_instances),
        )
    )
    handles = victim.connect(service, config.n_victim_instances)
    coverage, attacker_hosts = host_coverage(env, outcome.handles, handles)
    return coverage, attacker_hosts, outcome.cost_usd

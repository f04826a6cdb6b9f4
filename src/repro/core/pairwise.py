"""Conventional pairwise covert-channel verification (the baseline).

Prior work verifies co-location by testing instances two at a time, which
costs O(N^2) serialized tests.  The *Single Instance Elimination* (SIE)
pre-filter tests all instances simultaneously and drops negatives first —
effective in VM clouds where most instances are alone on their host, but
useless in FaaS environments, where the orchestrator packs many instances of
a service onto each host so nothing tests negative (paper §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cloud.api import InstanceHandle
from repro.core.clusters import DisjointSet
from repro.core.covert import CovertChannel
from repro.telemetry import current_telemetry


@dataclass
class PairwiseReport:
    """Outcome of a pairwise verification run."""

    clusters: list[list[InstanceHandle]]
    n_tests: int
    busy_seconds: float
    eliminated_by_sie: int = 0

    @property
    def n_hosts(self) -> int:
        """Number of verified distinct hosts (clusters)."""
        return len(self.clusters)


class PairwiseVerifier:
    """O(N^2) pairwise verification, optionally with an SIE pre-filter."""

    def __init__(self, channel: CovertChannel, use_sie: bool = False) -> None:
        self.channel = channel
        self.use_sie = use_sie

    def verify(self, handles: Sequence[InstanceHandle]) -> PairwiseReport:
        """Verify co-location of ``handles`` with serialized pairwise tests."""
        before = self.channel.stats.snapshot()

        with current_telemetry().span(
            "verify.pairwise", instances=len(handles), sie=self.use_sie
        ) as span, self.channel.prepared(handles):
            candidates = list(handles)
            eliminated = 0
            if self.use_sie and len(candidates) > 2:
                result = self.channel.ctest(candidates, threshold_m=2)
                kept = [h for h, p in zip(result.handles, result.positive) if p]
                eliminated = len(candidates) - len(kept)
                candidates = kept

            ds = DisjointSet(h.instance_id for h in handles)
            by_id = {h.instance_id: h for h in handles}
            for i in range(len(candidates)):
                for j in range(i + 1, len(candidates)):
                    if ds.same(candidates[i].instance_id, candidates[j].instance_id):
                        continue  # already known co-located via transitivity
                    result = self.channel.ctest(
                        [candidates[i], candidates[j]], threshold_m=2
                    )
                    if all(result.positive):
                        ds.union(
                            candidates[i].instance_id, candidates[j].instance_id
                        )

            clusters = [[by_id[iid] for iid in cluster] for cluster in ds.clusters()]
            delta = self.channel.stats.since(before)
            span.set(clusters=len(clusters), eliminated_by_sie=eliminated)
            return PairwiseReport(
                clusters=clusters,
                n_tests=int(delta.get("tests", 0)),
                busy_seconds=float(delta.get("busy_seconds", 0.0)),
                eliminated_by_sie=eliminated,
            )

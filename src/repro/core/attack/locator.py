"""Target Victim Locator: pinpointing an *uncontrolled* victim's host.

Everything up to here verifies co-location among attacker-controlled
instances — both sides of every covert-channel test run the attacker's
code.  The campaign's end goal is different: a victim service the
attacker can neither instrument nor instruct, only *probe* through its
public URL.  Prior serverless co-location work (the Shadow-Hunting-Attack
artifacts; "A Practical Guide to Serverless Cloud Co-Location Attacks")
closes that gap with a lock-and-probe protocol:

1. **Deduplicate.**  Collapse the attacker fleet to one *cluster* per
   physical server using the existing fingerprint-guided
   :class:`~repro.core.verification.ScalableVerifier` — probing per
   instance would waste a round on every co-resident duplicate.
2. **Lock subsets, probe the victim.**  A locked instance hammers the
   memory bus with an atomic-op loop; if the victim shares its host, the
   victim's request handling stretches measurably
   (:meth:`~repro.sandbox.base.Sandbox.serve_request`).  Binary search
   over the clusters — lock half, time the victim's public endpoint,
   keep whichever half produced the slow response — finds the
   co-resident cluster in O(log n_servers) lock/probe rounds, then the
   co-resident *instance* within it the same way.
3. **Threshold absolutely, confirm, retry.**  Latency is compared
   against an absolute threshold rather than a per-round differential
   one.  All modeled interference — scheduling jitter, fault-injected
   platform delays — is *additive*, so a locked co-resident can never
   probe fast (no false negatives), while a noisy slow probe can send
   the search down the wrong half.  Wrong descents are caught by a final
   single-instance confirmation measure and answered with a whole-search
   restart under a bounded :class:`~repro.faults.RetryPolicy`, which
   draws fresh fault decisions.  Instances that die mid-search simply
   drop out of their cluster (a reaped container stops pressuring); a
   search whose candidates all die reports a structured failure instead
   of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from repro.cloud.api import InstanceHandle
from repro.core.verification import ScalableVerifier, VerificationReport
from repro.errors import InstanceGoneError
from repro.faults import DEFAULT_LOCATE_RETRY, RetryPolicy
from repro.sandbox.base import Sandbox
from repro.telemetry import current_telemetry


def probe_latency_threshold(processing_seconds: float) -> float:
    """The absolute locked-vs-unlocked latency decision boundary.

    An unlocked response takes at most ``processing * (1 + SERVE_JITTER)``
    and a single co-resident locker stretches it to at least
    ``processing * (1 + BUS_LOCK_SLOWDOWN)``; halfway up the slowdown
    sits cleanly between the two bands.  This *is* the absolute-threshold
    assumption documented in THREAT_MODEL.md: the attacker must know the
    victim's unloaded processing time (measurable from a few unlocked
    probes) and the platform's contention slowdown (calibratable on the
    attacker's own instances).
    """
    return processing_seconds * (1.0 + Sandbox.BUS_LOCK_SLOWDOWN / 2.0)


@dataclass(frozen=True)
class LocatorResult:
    """Outcome of one localization campaign.

    Attributes
    ----------
    located:
        The attacker instance sharing the victim's host, or ``None``.
    converged:
        Whether localization succeeded (``located`` is set iff true).
    failure:
        Structured reason when not converged: ``"no_colocation"`` (with
        every candidate locked the victim still probed fast — no attacker
        instance shares its host), ``"candidates_died"`` (every remaining
        candidate terminated mid-search), or ``"not_confirmed"`` (the
        final confirmation stayed below threshold even after the retry
        budget's full-search restarts).
    rounds:
        Lock/probe rounds across all attempts (binary-search steps plus
        the all-locked pre-check and final confirmation of each attempt).
    probes:
        Individual victim requests sent (several per round).
    attempts:
        Full searches run: 1 on a clean convergence, more when a noisy
        descent failed confirmation and the retry policy restarted.
    baseline_latency_s / locked_latency_s:
        Unlocked victim latency and the all-candidates-locked latency of
        the last attempt — the measured signal margin.
    initial_candidates:
        Deduplicated cluster count the search started from.
    dedup:
        The verifier's report when :meth:`TargetVictimLocator.locate`
        performed deduplication itself, else ``None``.
    """

    located: InstanceHandle | None
    converged: bool
    failure: str | None
    rounds: int
    probes: int
    attempts: int
    baseline_latency_s: float
    locked_latency_s: float
    initial_candidates: int
    dedup: VerificationReport | None = None


class _SearchTrace:
    """Mutable per-call counters threaded through one localization."""

    def __init__(self) -> None:
        self.rounds = 0
        self.probes = 0
        self.baseline = 0.0
        self.locked = 0.0


class TargetVictimLocator:
    """Locate the attacker instance co-resident with a probe-able victim.

    Parameters
    ----------
    probe:
        Zero-argument callable timing one request to the victim's public
        URL (e.g. ``lambda: client.probe("account-2/victim")``) and
        returning the observed latency in seconds.  The locator owns no
        client: the victim stays a black box behind this callable.
    latency_threshold_s:
        Absolute locked-vs-unlocked decision boundary; see
        :func:`probe_latency_threshold`.
    verifier:
        Dedup provider for :meth:`locate`.  Optional — callers that
        already hold clusters use :meth:`locate_clusters` directly.
    probes_per_measure:
        Requests per measurement; the median is compared against the
        threshold, so a majority of one measurement's probes must be
        noise-delayed before a verdict can flip (keep it odd).
    confirm_probes:
        Requests for the final single-instance confirmation measure —
        larger than ``probes_per_measure`` because a false confirmation
        ends the search where a false round merely detours it.
    retry_policy:
        Full-search restart budget after a failed confirmation.
    wait:
        Optional wall-time sleep (e.g. ``client.wait``) honoring the
        retry policy's backoff between restarts.
    """

    def __init__(
        self,
        probe: Callable[[], float],
        latency_threshold_s: float,
        verifier: ScalableVerifier | None = None,
        probes_per_measure: int = 3,
        confirm_probes: int = 5,
        retry_policy: RetryPolicy | None = None,
        wait: Callable[[float], None] | None = None,
    ) -> None:
        self.probe = probe
        self.latency_threshold_s = latency_threshold_s
        self.verifier = verifier
        self.probes_per_measure = probes_per_measure
        self.confirm_probes = confirm_probes
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_LOCATE_RETRY
        )
        self.wait = wait

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def locate(
        self, pairs: Sequence[tuple[InstanceHandle, Hashable]]
    ) -> LocatorResult:
        """Deduplicate attacker instances, given as ``(handle,
        fingerprint)`` pairs, then localize.

        Requires a ``verifier``; its clusters (one per verified server)
        become the search candidates, and its report rides along in the
        result for cost accounting.
        """
        if self.verifier is None:
            raise ValueError("locate() needs a verifier; or use locate_clusters()")
        report = self.verifier.verify(list(pairs))
        result = self.locate_clusters(report.clusters)
        return _with_dedup(result, report)

    def locate_clusters(
        self, clusters: Sequence[Sequence[InstanceHandle]]
    ) -> LocatorResult:
        """Localize the victim among pre-deduplicated candidate clusters.

        Each cluster should hold the instances of one physical server,
        but the search stays correct under dedup errors: a wrongly
        *merged* cluster is split again by the within-cluster phase, and
        a wrongly *split* server just occupies two candidate slots (one
        of which wins).  Every locked subset locks all live members of
        its clusters, so a representative dying mid-search never silences
        a server that still runs other attacker instances.
        """
        telemetry = current_telemetry()
        trace = _SearchTrace()
        candidates = [list(cluster) for cluster in clusters]
        with telemetry.span(
            "locate", candidates=len(candidates), threshold=self.latency_threshold_s
        ) as span:
            attempts = 0
            failure = "not_confirmed"
            located: InstanceHandle | None = None
            while attempts <= self.retry_policy.max_retries:
                if attempts > 0 and self.wait is not None:
                    self.wait(self.retry_policy.backoff(attempts - 1))
                attempts += 1
                located, failure = self._search_once(candidates, trace)
                if located is not None or failure != "not_confirmed":
                    break
                telemetry.count("locate.restarts")
            span.set(
                converged=located is not None,
                failure=None if located is not None else failure,
                rounds=trace.rounds,
                probes=trace.probes,
                attempts=attempts,
            )
        telemetry.count("locate.calls")
        telemetry.count("locate.rounds", trace.rounds)
        telemetry.count("locate.probes", trace.probes)
        return LocatorResult(
            located=located,
            converged=located is not None,
            failure=None if located is not None else failure,
            rounds=trace.rounds,
            probes=trace.probes,
            attempts=attempts,
            baseline_latency_s=trace.baseline,
            locked_latency_s=trace.locked,
            initial_candidates=len(candidates),
        )

    # ------------------------------------------------------------------
    # One full search attempt
    # ------------------------------------------------------------------
    def _search_once(
        self, clusters: list[list[InstanceHandle]], trace: _SearchTrace
    ) -> tuple[InstanceHandle | None, str]:
        candidates = _prune(clusters)
        if not candidates:
            return None, "candidates_died"

        # Unlocked baseline, then the all-locked pre-check.  Interference
        # is strictly additive, so a fast response with *every* candidate
        # locked is conclusive: no live candidate shares the victim's
        # host.  (A slow baseline, conversely, can only be noise.)
        trace.baseline = self._measure(trace)
        trace.locked = self._measure_locked(candidates, trace)
        trace.rounds += 1
        if trace.locked < self.latency_threshold_s:
            return None, "no_colocation"

        # Phase 1: binary search to the co-resident server's cluster.
        winner = self._binary_search(candidates, trace)
        if winner is None:
            return None, "candidates_died"

        # Phase 2: the same search within the cluster pins one instance
        # (and corrects dedup over-merges, where the "cluster" actually
        # spans servers and only some members sit with the victim).
        member = self._binary_search([[h] for h in winner], trace)
        if member is None:
            return None, "candidates_died"
        located = member[0]

        # Confirmation: this one instance locked must reproduce the slow
        # response.  A noisy descent lands on an innocent server and
        # fails here, triggering the caller's full-search restart.
        confirmed = self._measure_locked([member], trace, self.confirm_probes)
        trace.rounds += 1
        if confirmed >= self.latency_threshold_s and located.alive:
            return located, ""
        return None, "not_confirmed"

    def _binary_search(
        self, candidates: list[list[InstanceHandle]], trace: _SearchTrace
    ) -> list[InstanceHandle] | None:
        """Narrow ``candidates`` to the cluster the victim responds to."""
        telemetry = current_telemetry()
        while len(candidates) > 1:
            half = candidates[: len(candidates) // 2]
            with telemetry.span(
                "locate.round", candidates=len(candidates), locked=len(half)
            ) as span:
                latency = self._measure_locked(half, trace)
                hot = latency >= self.latency_threshold_s
                span.set(latency=round(latency, 6), hot=hot)
            trace.rounds += 1
            candidates = _prune(half if hot else candidates[len(half):])
            if not candidates:
                return None
        return candidates[0] if candidates else None

    # ------------------------------------------------------------------
    # Lock/probe primitives
    # ------------------------------------------------------------------
    @staticmethod
    def _start(sandbox: Sandbox) -> None:
        sandbox.start_channel_pressure("bus")

    @staticmethod
    def _stop(sandbox: Sandbox) -> None:
        sandbox.stop_channel_pressure("bus")

    def _measure(self, trace: _SearchTrace, n_probes: int | None = None) -> float:
        """Median latency over ``n_probes`` requests to the victim."""
        n = self.probes_per_measure if n_probes is None else n_probes
        samples = sorted(self.probe() for _ in range(n))
        trace.probes += n
        return samples[n // 2]

    def _measure_locked(
        self,
        clusters: Sequence[Sequence[InstanceHandle]],
        trace: _SearchTrace,
        n_probes: int | None = None,
    ) -> float:
        """Measure victim latency with every live member of ``clusters``
        locking its host's memory bus; always unlocks, even on error."""
        locked: list[InstanceHandle] = []
        for cluster in clusters:
            for handle in cluster:
                try:
                    handle.run(self._start)
                except InstanceGoneError:
                    continue  # died since the last prune; dropped next round
                locked.append(handle)
        try:
            return self._measure(trace, n_probes)
        finally:
            for handle in locked:
                try:
                    handle.run(self._stop)
                except InstanceGoneError:
                    pass  # termination already released its pressure


def _prune(clusters: Sequence[Sequence[InstanceHandle]]) -> list[list[InstanceHandle]]:
    """Drop terminated members, then emptied clusters."""
    live = [[h for h in cluster if h.alive] for cluster in clusters]
    return [cluster for cluster in live if cluster]


def _with_dedup(result: LocatorResult, report: VerificationReport) -> LocatorResult:
    return LocatorResult(
        located=result.located,
        converged=result.converged,
        failure=result.failure,
        rounds=result.rounds,
        probes=result.probes,
        attempts=result.attempts,
        baseline_latency_s=result.baseline_latency_s,
        locked_latency_s=result.locked_latency_s,
        initial_candidates=result.initial_candidates,
        dedup=report,
    )

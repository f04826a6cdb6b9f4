"""Scalable instance co-location verification (paper §4.3, Fig. 3).

Conventional pairwise covert-channel testing needs O(N^2) serialized tests
for N instances.  The paper's alternative is hierarchical group testing
guided by host fingerprints:

1. Group instances by fingerprint (likely co-located).
2. Verify each group with n-way CTests in chunks of at most ``2m - 1``
   instances: ``m .. 2m - 1`` positives are guaranteed to share one host.
   Groups whose chunks all verify are merged hierarchically through their
   representatives.  Inconsistent groups fall back to a *host basis*:
   each chunk cluster is tested once, at threshold 2, together with one
   representative of every host found so far, and joins the host that
   lights up with it or becomes a new one.  The paper falls back to
   pairwise tests here; the basis refines that fallback and gives the
   same clusters on a noise-free channel, in one test per chunk cluster
   instead of one per pair.  Tests of groups that are *guaranteed*
   host-disjoint (different CPU models; any two distinct Gen 2
   fingerprints) run concurrently.
3. Hunt false negatives: one representative per verified cluster, all
   tested at once; positives are refined pairwise and their clusters
   merged.  (Skipped for Gen 2 fingerprints, which cannot have false
   negatives.)

In the common case of accurate fingerprints, the total number of tests is
O(M) where M is the number of occupied hosts, and wall-clock time is the
number of *waves* (a handful) times the per-test duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Hashable, Sequence

from repro.cloud.api import InstanceHandle
from repro.core.clusters import DisjointSet
from repro.core.covert import CovertChannel, CTestResult
from repro.core.fingerprint import Gen1Fingerprint, Gen2Fingerprint, group_by_fingerprint
from repro.errors import VerificationError
from repro.faults import DEFAULT_CTEST_RETRY, RetryPolicy
from repro.telemetry import current_telemetry

Clusters = list[list[InstanceHandle]]
#: One CTest: its handles and the contention threshold it runs at.
Test = tuple[list[InstanceHandle], int]
#: Step 2 of one group: yields its tests, is sent their results, and
#: returns ``(clusters, fell_back)``.
GroupTests = Generator[Test, CTestResult, tuple[Clusters, bool]]


@dataclass
class VerificationReport:
    """Outcome of a verification run.

    Attributes
    ----------
    clusters:
        Verified co-location clusters (lists of handles); the union covers
        every input instance.
    n_tests / n_batches / busy_seconds:
        Covert-channel cost of this run (batched tests share wall time).
    fallback_groups:
        Fingerprint groups that fell back to the host basis.
    merged_false_negatives:
        Cluster pairs merged by the step-3 false-negative hunt.
    """

    clusters: Clusters = field(default_factory=list)
    n_tests: int = 0
    n_batches: int = 0
    busy_seconds: float = 0.0
    fallback_groups: int = 0
    merged_false_negatives: int = 0

    def cluster_index(self) -> dict[str, int]:
        """Map each instance id to its cluster's index."""
        return {
            handle.instance_id: idx
            for idx, cluster in enumerate(self.clusters)
            for handle in cluster
        }

    @property
    def n_hosts(self) -> int:
        """Number of verified distinct hosts (clusters)."""
        return len(self.clusters)


def _group_tests(members: list[InstanceHandle], m: int) -> GroupTests:
    """Step 2 for one fingerprint group of at least two members.

    Chunk tests first.  If every chunk verified, the chunk clusters merge
    up a hierarchy of representative tests; if a chunk or a merge test
    comes back negative, the chunk clusters (not raw members) fall back
    to the host basis of :func:`_basis_tests`.
    """
    size = 2 * m - 1
    clusters: Clusters = []
    fully_colocated = True
    for chunk in _balanced_chunks(members, size):
        threshold = _threshold(m, chunk)
        result = yield chunk, threshold
        positives = [h for h, p in zip(result.handles, result.positive) if p]
        negatives = [h for h, p in zip(result.handles, result.positive) if not p]
        if 0 < len(positives) < threshold:
            # Inconsistent even after the channel-level retry; treat the
            # whole chunk as not co-located (conservative).
            negatives = list(result.handles)
            positives = []
        if positives:
            clusters.append(positives)
        clusters.extend([h] for h in negatives)
        if negatives:
            fully_colocated = False
    if len(clusters) <= 1:
        return clusters, False

    if fully_colocated:
        level = [cluster[0] for cluster in clusters]
        while len(level) > 1:
            result = yield level[:size], _threshold(m, level[:size])
            if not all(result.positive):
                break
            # The tested representatives share one host; collapse them
            # onto the first and continue up the hierarchy.
            level = [result.handles[0]] + level[len(result.handles) :]
        if len(level) == 1:
            return [[h for cluster in clusters for h in cluster]], False

    return (yield from _basis_tests(clusters)), True


def _basis_tests(units: Clusters) -> Generator[Test, CTestResult, Clusters]:
    """Sort ``units`` (each already on one host) onto distinct hosts.

    The basis holds one unit per host found so far; a unit's first handle
    is its representative.  Each other unit, in order, is tested once with
    every basis representative at threshold 2, whatever ``m`` is: at a
    higher threshold a pair on one host would stay dark.  With the basis
    on distinct hosts, a noise-free verdict lights nothing (a new host)
    or the unit and one member (it joins that member).  Any other verdict
    is re-run once.  Two or three lit instances twice over are one host,
    since two lit hosts need four: their basis members merge, repairing a
    basis an earlier noisy all-dark verdict split, and the unit joins
    them if it is lit or else is a new host.  A unit still ambiguous
    stays its own cluster (step 3 hunts it for Gen 1).
    """
    hosts = DisjointSet(range(len(units)))
    basis = [0]
    for unit in range(1, len(units)):
        candidates = basis + [unit]
        test = [units[index][0] for index in candidates]
        first = (yield test, 2).positive
        verdict = first if _settled(first) else (yield test, 2).positive
        if not (_settled(verdict) or (verdict == first and sum(verdict) in (2, 3))):
            continue
        lit = [index for index, flag in zip(candidates, verdict) if flag]
        for index in lit[1:]:
            hosts.union(lit[0], index)
        basis = [index for index in basis if index not in lit[1:]]
        if not verdict[-1]:
            basis.append(unit)
    return _merged(units, hosts)


def _settled(verdict: Sequence[bool]) -> bool:
    """A basis verdict a noise-free channel gives: nothing lit, or the
    unit (last) and exactly one basis member."""
    lit = sum(verdict)
    return lit == 0 or (lit == 2 and verdict[-1])


def _merged(units: Clusters, hosts: DisjointSet) -> Clusters:
    """The units joined by ``hosts``, one block of handles per cluster."""
    return [
        [handle for index in block for handle in units[index]]
        for block in hosts.clusters()
    ]


class ScalableVerifier:
    """Fingerprint-guided hierarchical co-location verifier.

    Parameters
    ----------
    channel:
        The covert-channel CTest provider.
    threshold_m:
        Contention threshold ``m``; chunks hold at most ``2m - 1``
        instances so a positive set within one chunk is a single host.
    retry_policy:
        How often to re-run an *inconsistent* test (fewer positives than
        the threshold — physically impossible without noise).  The default
        is the historical single re-run; raise ``max_retries`` when the
        channel is noisy (e.g. under fault injection).  Re-runs are
        counted in the channel's ``retries`` counter.
    """

    def __init__(
        self,
        channel: CovertChannel,
        threshold_m: int = 2,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if threshold_m < 2:
            raise VerificationError(f"threshold m must be >= 2, got {threshold_m}")
        self.channel = channel
        self.m = threshold_m
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_CTEST_RETRY

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def verify(
        self, pairs: Sequence[tuple[InstanceHandle, Hashable]]
    ) -> VerificationReport:
        """Produce verified co-location clusters for ``(handle,
        fingerprint)`` pairs, as fingerprinting returns them.

        The fingerprints say how far they can be trusted.  Gen 1
        fingerprints of different CPU models are on different hosts, so
        their groups test concurrently.  When every fingerprint is Gen 2,
        distinct fingerprints are distinct hosts and a host never splits
        across two: every group tests concurrently and step 3 is skipped.

        Safe to call repeatedly on one channel: per-call cost accounting
        is a snapshot/delta over the channel's counters, so sequential
        runs report their own cost while ``channel.stats`` keeps the
        cumulative totals.
        """
        telemetry = current_telemetry()
        report = VerificationReport()
        before = self.channel.stats.snapshot()
        no_false_negatives = all(isinstance(fp, Gen2Fingerprint) for _h, fp in pairs)

        with telemetry.span(
            "verify",
            instances=len(pairs),
            threshold_m=self.m,
            no_false_negatives=no_false_negatives,
        ) as span:
            # Step 1: each fingerprint's handles, with the group's batching key.
            groups = [
                (_batching_key(fp), members)
                for fp, members in group_by_fingerprint(pairs).items()
            ]
            span.set(groups=len(groups))
            with self.channel.prepared([handle for handle, _fp in pairs]):
                clusters = self._verify_groups(groups, report, no_false_negatives)
                if not no_false_negatives:
                    clusters = self._merge_false_negatives(clusters, report)
            report.clusters = clusters

            delta = self.channel.stats.since(before)
            report.n_tests = int(delta.get("tests", 0))
            report.busy_seconds = float(delta.get("busy_seconds", 0.0))
            report.n_batches = int(delta.get("batches", 0))
            span.set(
                clusters=len(report.clusters),
                tests=report.n_tests,
                fallback_groups=report.fallback_groups,
                merged_false_negatives=report.merged_false_negatives,
            )
        telemetry.count("verify.calls")
        telemetry.count("verify.tests", report.n_tests)
        telemetry.count("verify.busy_seconds", report.busy_seconds)
        telemetry.count("verify.fallback_groups", report.fallback_groups)
        telemetry.count(
            "verify.merged_false_negatives", report.merged_false_negatives
        )
        return report

    # ------------------------------------------------------------------
    # Step 2: intra-group verification, wave-batched across groups
    # ------------------------------------------------------------------
    def _verify_groups(
        self,
        groups: list[tuple[str | None, list[InstanceHandle]]],
        report: VerificationReport,
        no_false_negatives: bool,
    ) -> Clusters:
        # Nothing to verify inside a singleton group; step 3 still covers
        # potential false negatives against other clusters.
        clusters = [list(members) for _key, members in groups if len(members) == 1]
        tasks = [
            (key, _group_tests(members, self.m))
            for key, members in groups
            if len(members) > 1
        ]
        # Each generator's (clusters, fell_back), kept in group order.
        outcomes: dict[GroupTests, tuple[Clusters, bool]] = {
            tests: ([], False) for _key, tests in tasks
        }
        # Live generators in group order, each with its batching key and
        # the test it waits on; a wave sends every one a result, and a
        # generator that returns leaves the list.
        live: list[tuple[str | None, GroupTests, Test | None]] = [
            (key, tests, next(tests)) for key, tests in tasks
        ]

        telemetry = current_telemetry()
        wave = 0
        while live:
            with telemetry.span("verify.wave", wave=wave, requests=len(live)) as span:
                batches = _plan_batches([key for key, _g, _t in live], no_false_negatives)
                span.set(batches=len(batches))
                for batch in batches:
                    chunks, limits = zip(*(live[position][2] for position in batch))
                    results = self._run_batch(list(chunks), list(limits))
                    for position, result in zip(batch, results):
                        key, tests, _test = live[position]
                        try:
                            live[position] = (key, tests, tests.send(result))
                        except StopIteration as stop:
                            outcomes[tests] = stop.value
                            live[position] = (key, tests, None)
            live = [entry for entry in live if entry[2] is not None]
            wave += 1

        for group_clusters, fell_back in outcomes.values():
            if fell_back:
                report.fallback_groups += 1
            clusters.extend(group_clusters)
        return clusters

    def _run_batch(
        self, chunks: list[list[InstanceHandle]], limits: list[int]
    ) -> list[CTestResult]:
        """Run ``chunks`` as one batch, each at its threshold in ``limits``."""
        results = self.channel.ctest_batch(chunks, limits)
        # Retry inconsistent results (fewer positives than the threshold is
        # physically impossible without noise), up to the retry policy's
        # budget; each pass only re-runs the still-inconsistent tests.
        telemetry = current_telemetry()
        for _attempt in range(self.retry_policy.max_retries):
            retried: list[int] = [
                i
                for i, res in enumerate(results)
                if 0 < res.n_positive < limits[i]
            ]
            if not retried:
                break
            self.channel.stats.inc("retries", len(retried))
            before = self.channel.stats.snapshot()
            with telemetry.span(
                "verify.inconsistent_rerun", attempt=_attempt, tests=len(retried)
            ):
                fresh = self.channel.ctest_batch(
                    [chunks[i] for i in retried], [limits[i] for i in retried]
                )
            telemetry.count("verify.rerun_tests", len(retried))
            telemetry.count(
                "verify.rerun_busy_seconds",
                self.channel.stats.since(before).get("busy_seconds", 0.0),
            )
            for slot, res in zip(retried, fresh):
                results[slot] = res
        return results

    # ------------------------------------------------------------------
    # Step 3: false-negative hunt
    # ------------------------------------------------------------------
    def _merge_false_negatives(
        self,
        clusters: Clusters,
        report: VerificationReport,
    ) -> Clusters:
        if len(clusters) <= 1:
            return clusters
        # The sweep uses m = 2 regardless of the step-2 threshold: a false
        # negative may involve just two co-located representatives.
        with current_telemetry().span(
            "verify.false_negative_hunt", clusters=len(clusters)
        ) as span:
            reps = [cluster[0] for cluster in clusters]
            result = self._run_batch([reps], [2])[0]
            positives = [idx for idx, flag in enumerate(result.positive) if flag]
            span.set(positives=len(positives))
            if len(positives) < 2:
                return clusters

            # Refine: pairwise tests among the positive representatives
            # reveal which of their clusters actually share hosts.  Every
            # positive pair is tested unless transitivity settles it; no
            # negative is remembered here.
            hosts = DisjointSet(range(len(clusters)))
            for a in range(len(positives)):
                for b in range(a + 1, len(positives)):
                    i, j = positives[a], positives[b]
                    if hosts.same(i, j):
                        continue
                    pair = self._run_batch([[reps[i], reps[j]]], [2])[0]
                    if all(pair.positive):
                        hosts.union(i, j)
                        report.merged_false_negatives += 1
            span.set(merged=report.merged_false_negatives)
            return _merged(clusters, hosts)


def _plan_batches(
    keys: Sequence[str | None], no_false_negatives: bool
) -> list[list[int]]:
    """Greedily pack one wave's tests into concurrency-safe batches.

    ``keys`` holds each test's batching key; a batch is a list of
    positions into it.  Two tests may share a batch when their groups are
    guaranteed to be on different hosts: always true across groups under
    ``no_false_negatives`` (all Gen 2), and true for groups with different
    keys otherwise (Gen 1).  A ``None`` key carries no such guarantee
    against *anyone*, so its test gets an exclusive batch (``taken is
    None`` below) that no other test may join — previously a keyed group
    could slip into it and concurrent tests could share a host, silently
    corrupting verdicts.
    """
    if no_false_negatives:
        return [list(range(len(keys)))]
    batches: list[tuple[set[str] | None, list[int]]] = []
    # First-fit packing with a per-key resume index.  A batch that is
    # unacceptable for key k stays unacceptable (it either already
    # contains k or is a keyless exclusive batch), so each key's scan can
    # resume where the last one stopped instead of rescanning the whole
    # batch list — the sizing step stays O(tests) even for the wide
    # single-wave batches the vectorized round engine makes worthwhile.
    # Placement decisions are identical to a full scan.
    scan_from: dict[str, int] = {}
    for position, key in enumerate(keys):
        if key is None:
            batches.append((None, [position]))
            continue
        index = scan_from.get(key, 0)
        placed = False
        while index < len(batches):
            taken, batch = batches[index]
            if taken is not None and key not in taken:
                batch.append(position)
                taken.add(key)
                placed = True
                break
            index += 1
        scan_from[key] = index + 1
        if not placed:
            batches.append(({key}, [position]))
    return [batch for _taken, batch in batches]


def _threshold(m: int, chunk: Sequence[InstanceHandle]) -> int:
    """Contention threshold of a chunk or merge test.

    A test can only light up when at least ``threshold`` pressurers share
    a host, so tests smaller than ``m`` (small trailing chunks) drop to
    their own size — never below the physical minimum of 2 (paper §4.3
    adjusts the threshold per test).  Basis and step-3 tests always run
    at 2.
    """
    return max(2, min(m, len(chunk)))


def _batching_key(fingerprint: Hashable) -> str | None:
    """A key that differs only between instances on different hosts.

    Two Gen 1 fingerprints of different CPU models cannot share a host.
    Any other fingerprint gives no such guarantee: ``None``.
    """
    return fingerprint.cpu_model if isinstance(fingerprint, Gen1Fingerprint) else None


def _balanced_chunks(items: list, size: int) -> list[list]:
    """Split ``items`` into chunks of at most ``size``, avoiding singletons.

    A trailing single-instance chunk is useless to a contention test (one
    pressurer can never exceed the threshold), so the last two chunks are
    rebalanced, e.g. 10 items at size 3 become ``3 + 3 + 2 + 2``.
    """
    if size < 2:
        raise VerificationError(f"chunk size must be >= 2, got {size}")
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    if len(chunks) >= 2 and len(chunks[-1]) == 1:
        chunks[-1].insert(0, chunks[-2].pop())
    return chunks

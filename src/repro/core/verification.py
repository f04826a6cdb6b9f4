"""Scalable instance co-location verification (paper §4.3, Fig. 3).

Conventional pairwise covert-channel testing needs O(N^2) serialized tests
for N instances.  The paper's alternative is hierarchical group testing
guided by host fingerprints:

1. Group instances by fingerprint (likely co-located).
2. Verify each group with n-way CTests in chunks of at most ``2m - 1``
   instances: ``m .. 2m - 1`` positives are guaranteed to share one host.
   Groups whose chunks all verify are merged hierarchically through their
   representatives; inconsistent groups fall back to pairwise testing.
   Tests of groups that are *guaranteed* host-disjoint (different CPU
   models; any two distinct Gen 2 fingerprints) run concurrently.
3. Hunt false negatives: one representative per verified cluster, all
   tested at once; positives are refined pairwise and their clusters
   merged.  (Skipped for Gen 2 fingerprints, which cannot have false
   negatives.)

In the common case of accurate fingerprints, the total number of tests is
O(M) where M is the number of occupied hosts, and wall-clock time is the
number of *waves* (a handful) times the per-test duration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.cloud.api import InstanceHandle
from repro.core.clusters import DisjointSet
from repro.core.covert import CovertChannel, CTestResult
from repro.errors import VerificationError
from repro.faults import DEFAULT_CTEST_RETRY, RetryPolicy
from repro.telemetry import current_telemetry


@dataclass(frozen=True)
class TaggedInstance:
    """An instance handle plus the attacker-side placement hints.

    Attributes
    ----------
    handle:
        The instance.
    fingerprint:
        Any hashable fingerprint (Gen 1 or Gen 2).
    model_key:
        A key such that instances with *different* keys are guaranteed to be
        on different hosts (the CPU model for Gen 1); used to batch tests
        safely.  ``None`` disables cross-group batching for this instance.
    """

    handle: InstanceHandle
    fingerprint: Hashable
    model_key: str | None = None


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
        Fingerprint groups that degenerated to pairwise testing.
    merged_false_negatives:
        Cluster pairs merged by the step-3 false-negative hunt.
    """

    clusters: list[list[InstanceHandle]] = field(default_factory=list)
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


class _GroupTask:
    """Step-2 state machine for one fingerprint group.

    Phases: ``chunking`` (n-way chunk tests) -> either ``merging``
    (hierarchical representative tests) or ``fallback`` (pairwise within
    the group, with transitivity pruning) -> ``done``.
    """

    def __init__(self, members: list[InstanceHandle], model_key: str | None) -> None:
        self.members = members
        self.model_key = model_key
        self.clusters: list[list[InstanceHandle]] = []
        self.fully_colocated = True
        self.fell_back = False
        # Work queues are deques: both are consumed strictly from the
        # front, and a large group's pairwise fallback pops O(units^2)
        # entries — list.pop(0)'s O(n) shift would make that quadratic
        # again on top of the quadratic pair count.
        self.pending_chunks: deque[list[InstanceHandle]] = deque()
        self.merge_level: list[InstanceHandle] = []
        self.fallback_units: list[list[InstanceHandle]] = []
        self.fallback_ds: DisjointSet | None = None
        self.fallback_pairs: deque[tuple[int, int]] = deque()
        #: Negative verdicts between fallback clusters, keyed by cluster
        #: root: ``root -> roots known to be on other hosts`` (symmetric).
        self.fallback_negatives: dict[int, set[int]] = {}
        self.phase = "chunking"

    def done(self) -> bool:
        return self.phase == "done"

    def enter_fallback(self) -> None:
        """Degenerate to pairwise testing within the group.

        Pairs are tested between *representatives of already-verified
        units* (the chunk-phase clusters), not between raw members: two
        units on the same host merge after a single positive test, so the
        sweep costs ~C(units, 2) instead of C(members, 2), further pruned
        by transitivity.
        """
        self.fell_back = True
        self.phase = "fallback"
        self.fallback_units = [list(cluster) for cluster in self.clusters if cluster]
        self.clusters = []
        n = len(self.fallback_units)
        self.fallback_ds = DisjointSet(range(n))
        self.fallback_pairs = deque(
            (i, j) for i in range(n) for j in range(i + 1, n)
        )
        self.fallback_negatives = {}

    def record_fallback_negative(self, i: int, j: int) -> None:
        """Remember that the units' current clusters are on different hosts."""
        assert self.fallback_ds is not None
        root_i, root_j = self.fallback_ds.find(i), self.fallback_ds.find(j)
        if root_i != root_j:
            self.fallback_negatives.setdefault(root_i, set()).add(root_j)
            self.fallback_negatives.setdefault(root_j, set()).add(root_i)

    def merge_fallback_units(self, i: int, j: int) -> None:
        """Union two units, migrating negative knowledge to the new root.

        Host identity is an equivalence relation, so a cluster's negative
        verdicts extend to everything merged into it.  Only the two old
        roots' neighbours move; a negative between the two merged clusters
        contradicts the merge and is dropped.
        """
        assert self.fallback_ds is not None
        old_i, old_j = self.fallback_ds.find(i), self.fallback_ds.find(j)
        self.fallback_ds.union(i, j)
        new_root = self.fallback_ds.find(i)
        negatives = self.fallback_negatives
        moved = negatives.pop(old_i, set()) | negatives.pop(old_j, set())
        moved -= {old_i, old_j}
        for other in moved:
            neighbours = negatives[other]
            neighbours.discard(old_i)
            neighbours.discard(old_j)
            neighbours.add(new_root)
        if moved:
            negatives[new_root] = moved

    def next_fallback_pair(self) -> list[InstanceHandle] | None:
        """Next unit pair not settled by transitivity or negative memory."""
        assert self.fallback_ds is not None
        while self.fallback_pairs:
            i, j = self.fallback_pairs[0]
            root_i, root_j = self.fallback_ds.find(i), self.fallback_ds.find(j)
            settled = root_i == root_j or (
                root_j in self.fallback_negatives.get(root_i, ())
            )
            if settled:
                self.fallback_pairs.popleft()
                continue
            return [self.fallback_units[i][0], self.fallback_units[j][0]]
        return None

    def finish_fallback(self) -> None:
        assert self.fallback_ds is not None
        self.clusters = []
        for index_cluster in self.fallback_ds.clusters():
            block: list[InstanceHandle] = []
            for idx in index_cluster:
                block.extend(self.fallback_units[idx])
            self.clusters.append(block)
        self.phase = "done"


class ScalableVerifier:
    """Fingerprint-guided hierarchical co-location verifier.

    Parameters
    ----------
    channel:
        The covert-channel CTest provider.
    threshold_m:
        Contention threshold ``m``; chunks hold at most ``2m - 1``
        instances so a positive set within one chunk is a single host.
    assume_no_false_negatives:
        Set for Gen 2 fingerprints: skips step 3 and batches every group
        concurrently (distinct fingerprints guarantee distinct hosts).
    retry_policy:
        How often to re-run an *inconsistent* test (fewer positives than
        the threshold — physically impossible without noise).  The default
        is the historical single re-run; raise ``max_retries`` when the
        channel is noisy (e.g. under fault injection).  Re-runs are
        counted in ``channel.stats.retries``.
    """

    def __init__(
        self,
        channel: CovertChannel,
        threshold_m: int = 2,
        assume_no_false_negatives: bool = False,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if threshold_m < 2:
            raise VerificationError(f"threshold m must be >= 2, got {threshold_m}")
        self.channel = channel
        self.m = threshold_m
        self.assume_no_false_negatives = assume_no_false_negatives
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_CTEST_RETRY

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def verify(self, tagged: Sequence[TaggedInstance]) -> VerificationReport:
        """Produce verified co-location clusters for ``tagged`` instances.

        Safe to call repeatedly on one channel: per-call cost accounting
        is a snapshot/delta over the channel's counters, so sequential
        runs report their own cost while ``channel.stats`` keeps the
        cumulative totals.
        """
        telemetry = current_telemetry()
        report = VerificationReport()
        before = self.channel.stats.snapshot()

        with telemetry.span(
            "verify",
            instances=len(tagged),
            threshold_m=self.m,
            no_false_negatives=self.assume_no_false_negatives,
        ) as span:
            groups = self._group_by_fingerprint(tagged)
            span.set(groups=len(groups))
            with self.channel.prepared([item.handle for item in tagged]):
                clusters = self._verify_groups(groups, report)
                if not self.assume_no_false_negatives:
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
    # Step 1: fingerprint grouping
    # ------------------------------------------------------------------
    @staticmethod
    def _group_by_fingerprint(
        tagged: Sequence[TaggedInstance],
    ) -> list[tuple[str | None, list[InstanceHandle]]]:
        members: dict[Hashable, list[InstanceHandle]] = {}
        model_keys: dict[Hashable, str | None] = {}
        for item in tagged:
            fp = item.fingerprint
            if fp not in members:
                members[fp] = []
                model_keys[fp] = item.model_key
            elif model_keys[fp] != item.model_key:
                # Mixed batching keys within one fingerprint group: no
                # single key can guarantee host-disjointness against other
                # groups, so cross-group batching is disabled for the
                # whole group rather than inheriting the first item's key.
                model_keys[fp] = None
            members[fp].append(item.handle)
        return [(model_keys[fp], handles) for fp, handles in members.items()]

    # ------------------------------------------------------------------
    # Step 2: intra-group verification, wave-batched across groups
    # ------------------------------------------------------------------
    def _verify_groups(
        self,
        groups: list[tuple[str | None, list[InstanceHandle]]],
        report: VerificationReport,
    ) -> list[list[InstanceHandle]]:
        tasks: list[_GroupTask] = []
        clusters: list[list[InstanceHandle]] = []
        for model_key, members in groups:
            if len(members) == 1:
                # Nothing to verify inside a singleton group; step 3 still
                # covers potential false negatives against other clusters.
                clusters.append(list(members))
                continue
            task = _GroupTask(members, model_key)
            task.pending_chunks = deque(_balanced_chunks(members, 2 * self.m - 1))
            tasks.append(task)

        telemetry = current_telemetry()
        wave = 0
        # Active-task scheduling: _next_test returns None exactly when a
        # task has finished, so tasks drop out of the wave scan as they
        # complete instead of being re-polled every wave — O(live groups)
        # per wave, not O(all groups), which matters when a 64x wave
        # carries tens of thousands of fingerprint groups.  Request order
        # within a wave is unchanged (task insertion order), so batch
        # planning and the RNG-free verdict sequence are identical.
        active = list(tasks)
        while active:
            requests: list[tuple[_GroupTask, list[InstanceHandle]]] = []
            next_active: list[_GroupTask] = []
            for task in active:
                test = self._next_test(task)
                if test is not None:
                    requests.append((task, test))
                    next_active.append(task)
            active = next_active
            if not requests:
                break
            with telemetry.span(
                "verify.wave", wave=wave, requests=len(requests)
            ) as span:
                batches = self._plan_batches(requests)
                span.set(batches=len(batches))
                for batch in batches:
                    results = self._run_batch([test for _task, test in batch])
                    for (task, _test), result in zip(batch, results):
                        self._feed_result(task, result)
            wave += 1

        for task in tasks:
            if task.fell_back:
                report.fallback_groups += 1
            clusters.extend(task.clusters)
        return clusters

    def _next_test(self, task: _GroupTask) -> list[InstanceHandle] | None:
        """Return the group's next pending test, advancing its phases."""
        if task.done():
            return None
        if task.phase == "chunking":
            if task.pending_chunks:
                return task.pending_chunks[0]
            # All chunks resolved: decide whether to merge or finish.
            if len(task.clusters) <= 1:
                task.phase = "done"
                return None
            if not task.fully_colocated:
                task.enter_fallback()
            else:
                task.phase = "merging"
                task.merge_level = [cluster[0] for cluster in task.clusters]
        if task.phase == "merging":
            if len(task.merge_level) <= 1:
                merged: list[InstanceHandle] = []
                for cluster in task.clusters:
                    merged.extend(cluster)
                task.clusters = [merged]
                task.phase = "done"
                return None
            return task.merge_level[: 2 * self.m - 1]
        if task.phase == "fallback":
            pair = task.next_fallback_pair()
            if pair is None:
                task.finish_fallback()
                return None
            return pair
        return None

    def _feed_result(self, task: _GroupTask, result: CTestResult) -> None:
        """Apply a finished test to the group's state machine."""
        if task.phase == "chunking":
            task.pending_chunks.popleft()
            positives = [h for h, p in zip(result.handles, result.positive) if p]
            negatives = [h for h, p in zip(result.handles, result.positive) if not p]
            if 0 < len(positives) < self._threshold_for(result.handles):
                # Inconsistent even after the channel-level retry; treat
                # the whole chunk as not co-located (conservative).
                negatives = list(result.handles)
                positives = []
            if positives:
                task.clusters.append(positives)
            task.clusters.extend([h] for h in negatives)
            if negatives:
                task.fully_colocated = False
        elif task.phase == "merging":
            if all(result.positive):
                # The tested representatives share one host; collapse them
                # onto the first and continue up the hierarchy.
                survivors = task.merge_level[len(result.handles):]
                task.merge_level = [result.handles[0]] + survivors
            else:
                task.enter_fallback()
        elif task.phase == "fallback":
            assert task.fallback_ds is not None
            i, j = task.fallback_pairs.popleft()
            if all(result.positive):
                task.merge_fallback_units(i, j)
            else:
                task.record_fallback_negative(i, j)

    def _plan_batches(
        self, requests: list[tuple[_GroupTask, list[InstanceHandle]]]
    ) -> list[list[tuple[_GroupTask, list[InstanceHandle]]]]:
        """Greedily pack group tests into concurrency-safe batches.

        Two tests may share a batch when their groups are guaranteed to be
        on different hosts: always true across groups under
        ``assume_no_false_negatives`` (Gen 2), and true for groups with
        different ``model_key`` otherwise (Gen 1).  A ``model_key=None``
        group carries no such guarantee against *anyone*, so it gets an
        exclusive batch (``keys is None`` below) that no other group may
        join — previously a keyed group could slip into it and concurrent
        tests could share a host, silently corrupting verdicts.
        """
        if self.assume_no_false_negatives:
            return [requests]
        batches: list[
            tuple[set[str] | None, list[tuple[_GroupTask, list[InstanceHandle]]]]
        ] = []
        # First-fit packing with a per-key resume index.  A batch that is
        # unacceptable for key k stays unacceptable (it either already
        # contains k or is a keyless exclusive batch), so each key's scan
        # can resume where the last one stopped instead of rescanning the
        # whole batch list — the sizing step stays O(requests) even for
        # the wide single-wave batches the vectorized round engine makes
        # worthwhile.  Placement decisions are identical to a full scan.
        scan_from: dict[str, int] = {}
        for task, test in requests:
            key = task.model_key
            if key is None:
                batches.append((None, [(task, test)]))
                continue
            index = scan_from.get(key, 0)
            placed = False
            while index < len(batches):
                keys, batch = batches[index]
                if keys is not None and key not in keys:
                    batch.append((task, test))
                    keys.add(key)
                    placed = True
                    break
                index += 1
            scan_from[key] = index + 1
            if not placed:
                batches.append(({key}, [(task, test)]))
        return [batch for _keys, batch in batches]

    def _threshold_for(self, chunk: Sequence[InstanceHandle]) -> int:
        """Per-test contention threshold.

        A test can only light up when at least ``threshold`` pressurers
        share a host, so tests smaller than ``m`` (pairs during fallback
        and refinement, small trailing chunks) drop to their own size —
        never below the physical minimum of 2 (paper §4.3 adjusts the
        threshold per test).
        """
        return max(2, min(self.m, len(chunk)))

    def _run_batch(
        self,
        chunks: list[list[InstanceHandle]],
        force_threshold: int | None = None,
    ) -> list[CTestResult]:
        def thresholds(batch: list[list[InstanceHandle]]) -> list[int]:
            if force_threshold is not None:
                return [force_threshold] * len(batch)
            return [self._threshold_for(chunk) for chunk in batch]

        results = self.channel.ctest_batch(chunks, thresholds(chunks))
        # Retry inconsistent results (fewer positives than the threshold is
        # physically impossible without noise), up to the retry policy's
        # budget; each pass only re-runs the still-inconsistent tests.
        limits = thresholds(chunks)
        telemetry = current_telemetry()
        for _attempt in range(self.retry_policy.max_retries):
            retried: list[int] = [
                i
                for i, res in enumerate(results)
                if 0 < res.n_positive < limits[i]
            ]
            if not retried:
                break
            self.channel.stats.retries += len(retried)
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
        clusters: list[list[InstanceHandle]],
        report: VerificationReport,
    ) -> list[list[InstanceHandle]]:
        if len(clusters) <= 1:
            return clusters
        # The sweep uses m = 2 regardless of the step-2 threshold: a false
        # negative may involve just two co-located representatives.
        with current_telemetry().span(
            "verify.false_negative_hunt", clusters=len(clusters)
        ) as span:
            reps = [cluster[0] for cluster in clusters]
            result = self._run_batch([reps], force_threshold=2)[0]
            positives = [idx for idx, flag in enumerate(result.positive) if flag]
            span.set(positives=len(positives))
            if len(positives) < 2:
                return clusters

            # Refine: pairwise tests among the positive representatives
            # reveal which of their clusters actually share hosts.
            ds = DisjointSet(range(len(clusters)))
            for a in range(len(positives)):
                for b in range(a + 1, len(positives)):
                    i, j = positives[a], positives[b]
                    if ds.same(i, j):
                        continue
                    pair = self._run_batch([[reps[i], reps[j]]])[0]
                    if all(pair.positive):
                        ds.union(i, j)
                        report.merged_false_negatives += 1
            span.set(merged=report.merged_false_negatives)
            merged: list[list[InstanceHandle]] = []
            for index_cluster in ds.clusters():
                block: list[InstanceHandle] = []
                for idx in index_cluster:
                    block.extend(clusters[idx])
                merged.append(block)
            return merged


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


def tag_instances(
    pairs: Sequence[tuple[InstanceHandle, Hashable]],
    model_key_fn: Callable[[Hashable], str | None] | None = None,
) -> list[TaggedInstance]:
    """Build :class:`TaggedInstance` records from ``(handle, fingerprint)``
    pairs, deriving the batching key via ``model_key_fn``."""
    tagged = []
    for handle, fingerprint in pairs:
        key = model_key_fn(fingerprint) if model_key_fn is not None else None
        tagged.append(TaggedInstance(handle=handle, fingerprint=fingerprint, model_key=key))
    return tagged

"""Unit tests for the scalable co-location verifier."""

from dataclasses import dataclass

import pytest

from repro.analysis.metrics import pair_confusion
from repro.cloud.services import ServiceConfig
from repro.core.covert import CovertChannel, CTestResult, RngCovertChannel
from repro.core.fingerprint import (
    Gen1Fingerprint,
    Gen2Fingerprint,
    fingerprint_gen1_instances,
    fingerprint_gen2_instances,
    group_by_fingerprint,
)
from repro.core.verification import (
    ScalableVerifier,
    _balanced_chunks,
    _batching_key,
    _group_tests,
    _plan_batches,
)
from repro.errors import VerificationError
from repro.faults import DEFAULT_CTEST_RETRY, RetryPolicy


def launch_and_tag(env, n, generation="gen1", name="svc"):
    client = env.attacker
    service = client.deploy(ServiceConfig(name=name, generation=generation))
    handles = client.connect(service, n)
    if generation == "gen2":
        pairs = fingerprint_gen2_instances(handles)
    else:
        pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
    truth = {h.instance_id: env.orchestrator.true_host_of(h.instance_id) for h in handles}
    return pairs, truth


class TestScalableVerifier:
    def test_recovers_true_clusters(self, tiny_env):
        tagged, truth = launch_and_tag(tiny_env, 40)
        report = ScalableVerifier(RngCovertChannel()).verify(tagged)
        confusion = pair_confusion(report.cluster_index(), truth)
        assert confusion.precision == 1.0
        assert confusion.recall == 1.0

    def test_cluster_count_matches_hosts(self, tiny_env):
        tagged, truth = launch_and_tag(tiny_env, 40)
        report = ScalableVerifier(RngCovertChannel()).verify(tagged)
        assert report.n_hosts == len(set(truth.values()))

    def test_covers_every_instance(self, tiny_env):
        tagged, _truth = launch_and_tag(tiny_env, 25)
        report = ScalableVerifier(RngCovertChannel()).verify(tagged)
        covered = {h.instance_id for c in report.clusters for h in c}
        assert covered == {h.instance_id for h, _fp in tagged}

    def test_far_fewer_tests_than_pairwise(self, tiny_env):
        tagged, truth = launch_and_tag(tiny_env, 40)
        report = ScalableVerifier(RngCovertChannel()).verify(tagged)
        pairwise_tests = 40 * 39 // 2
        assert report.n_tests < pairwise_tests / 4

    def test_batching_reduces_wall_time(self, tiny_env):
        tagged, _truth = launch_and_tag(tiny_env, 40)
        channel = RngCovertChannel()
        report = ScalableVerifier(channel).verify(tagged)
        assert report.n_batches < report.n_tests
        assert report.busy_seconds == pytest.approx(
            report.n_batches * channel.seconds_per_test
        )

    def test_handles_false_negative_fingerprints(self, tiny_env):
        """Split one fingerprint group artificially (as drift would) and
        check step 3 re-merges the clusters."""
        tagged, truth = launch_and_tag(tiny_env, 30)
        groups: dict = {}
        for h, fp in tagged:
            groups.setdefault(fp, []).append(h)
        big_fp, members = max(groups.items(), key=lambda kv: len(kv[1]))
        assert len(members) >= 2
        fake = Gen1Fingerprint(
            cpu_model=big_fp.cpu_model,
            boot_bucket=big_fp.boot_bucket + 1,
            p_boot=big_fp.p_boot,
        )
        split = [(members[0], fake)] + [(h, fp) for h, fp in tagged if h is not members[0]]
        report = ScalableVerifier(RngCovertChannel()).verify(split)
        confusion = pair_confusion(report.cluster_index(), truth)
        assert confusion.recall == 1.0
        assert report.merged_false_negatives >= 1

    def test_handles_false_positive_fingerprints(self, tiny_env):
        """Merge two different hosts' groups under one fingerprint and
        check step 2 splits them back apart."""
        tagged, truth = launch_and_tag(tiny_env, 30)
        fingerprints = list({fp for _h, fp in tagged})
        assert len(fingerprints) >= 2
        keep, merge_away = fingerprints[0], fingerprints[1]
        forged = [(h, keep if fp == merge_away else fp) for h, fp in tagged]
        report = ScalableVerifier(RngCovertChannel()).verify(forged)
        confusion = pair_confusion(report.cluster_index(), truth)
        assert confusion.precision == 1.0

    def test_gen2_mode_skips_false_negative_hunt(self, tiny_env):
        tagged, truth = launch_and_tag(tiny_env, 30, generation="gen2")
        channel = RngCovertChannel()
        report = ScalableVerifier(channel).verify(tagged)
        confusion = pair_confusion(report.cluster_index(), truth)
        assert confusion.precision == 1.0
        assert confusion.recall == 1.0

    def test_gen2_mode_batches_aggressively(self, tiny_env):
        tagged, _ = launch_and_tag(tiny_env, 30, generation="gen2")
        report = ScalableVerifier(RngCovertChannel()).verify(tagged)
        assert report.n_batches <= max(4, report.n_tests // 2)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_collision_heavy_fallback_stays_cheap(self, tiny_env, m):
        """With every instance forged onto ONE fingerprint (maximum
        collisions), the host basis resolves the clusters in about one
        test per instance.  Basis tests run at threshold 2 whatever ``m``
        is: at threshold ``m`` a pair on one host stays dark, and the
        basis grows a member per instance (746 tests at ``m = 4``)."""
        tagged, truth = launch_and_tag(tiny_env, 40)
        one_fp = tagged[0][1]
        forged = [(h, one_fp) for h, _fp in tagged]
        report = ScalableVerifier(RngCovertChannel(), threshold_m=m).verify(forged)
        confusion = pair_confusion(report.cluster_index(), truth)
        assert confusion.precision == 1.0
        assert confusion.recall == 1.0
        # Chunk tests, one basis test per unit and the step-3 hunt.
        assert report.n_tests <= 2 * 40

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_exact_clusters_for_all_thresholds(self, tiny_env_factory, m):
        """Raising m shrinks the test count but must never cost accuracy:
        sub-threshold tests (pairs, small chunks) drop to their own size."""
        env = tiny_env_factory(seed=31)
        client = env.attacker
        from repro.cloud.services import ServiceConfig

        service = client.deploy(ServiceConfig(name="m-sweep"))
        handles = client.connect(service, 40)
        pairs = fingerprint_gen1_instances(handles, p_boot=1.0)
        report = ScalableVerifier(RngCovertChannel(), threshold_m=m).verify(pairs)
        truth = {
            h.instance_id: env.orchestrator.true_host_of(h.instance_id)
            for h in handles
        }
        confusion = pair_confusion(report.cluster_index(), truth)
        assert confusion.precision == 1.0
        assert confusion.recall == 1.0

    def test_threshold_m_validated(self):
        with pytest.raises(VerificationError):
            ScalableVerifier(RngCovertChannel(), threshold_m=1)

    def test_single_instance_input(self, tiny_env):
        tagged, _ = launch_and_tag(tiny_env, 1)
        report = ScalableVerifier(RngCovertChannel()).verify(tagged)
        assert report.n_hosts == 1

    def test_empty_input(self):
        report = ScalableVerifier(RngCovertChannel()).verify([])
        assert report.clusters == []
        assert report.n_tests == 0


class TestBalancedChunks:
    def test_exact_multiples(self):
        assert _balanced_chunks(list(range(9)), 3) == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_no_trailing_singleton(self):
        chunks = _balanced_chunks(list(range(10)), 3)
        assert [len(c) for c in chunks] == [3, 3, 2, 2]

    def test_small_inputs(self):
        assert _balanced_chunks([1], 3) == [[1]]
        assert _balanced_chunks([1, 2], 3) == [[1, 2]]

    def test_size_validation(self):
        with pytest.raises(VerificationError):
            _balanced_chunks([1, 2], 1)

    def test_chunks_cover_all(self):
        items = list(range(23))
        chunks = _balanced_chunks(items, 3)
        assert sorted(i for c in chunks for i in c) == items


@dataclass(frozen=True)
class FakeHandle:
    """Minimal stand-in for an InstanceHandle."""

    instance_id: str


def step1_groups(pairs):
    """Step 1 as ``verify`` runs it: each group with its batching key."""
    return [
        (_batching_key(fp), members)
        for fp, members in group_by_fingerprint(pairs).items()
    ]


class TestGroupByFingerprint:
    def test_uniform_keys_preserved(self):
        xeon, epyc = Gen1Fingerprint("xeon", 1, 1.0), Gen1Fingerprint("epyc", 2, 1.0)
        pairs = [(FakeHandle("a"), xeon), (FakeHandle("b"), xeon), (FakeHandle("c"), epyc)]
        groups = dict(
            (key, [h.instance_id for h in members])
            for key, members in step1_groups(pairs)
        )
        assert groups == {"xeon": ["a", "b"], "epyc": ["c"]}

    def test_only_gen1_fingerprints_carry_a_key(self):
        """The batching key is a Gen 1 fingerprint's CPU model; a Gen 2 or
        any other fingerprint says nothing about other groups' hosts."""
        pairs = [
            (FakeHandle("a"), Gen1Fingerprint("xeon", 1, 1.0)),
            (FakeHandle("b"), Gen2Fingerprint(2_000_000)),
            (FakeHandle("c"), "synthetic"),
        ]
        keys = [key for key, _members in step1_groups(pairs)]
        assert keys == ["xeon", None, None]


class TestPlanBatches:
    """The satellite-1 regression: ``None``-keyed groups carry no
    host-disjointness guarantee, so their tests must run alone — no keyed
    group may share their batch (previously ``key not in set()`` let any
    keyed group slip in).  A wave is given as its tests' batching keys; a
    batch is a list of positions into them."""

    @staticmethod
    def _plan(keys, no_false_negatives=False):
        return _plan_batches(keys, no_false_negatives)

    def test_none_key_batch_is_exclusive(self):
        keys = [None, "xeon", "epyc"]
        batches = self._plan(keys)
        for batch in batches:
            if any(keys[position] is None for position in batch):
                assert len(batch) == 1
        # The two keyed groups still share one batch with each other.
        assert batches == [[0], [1, 2]]

    def test_keyed_group_does_not_join_earlier_none_batch(self):
        # None first is the order that triggered the historical bug.
        assert self._plan([None, "xeon"]) == [[0], [1]]

    def test_every_none_group_runs_alone(self):
        assert self._plan([None, None, None]) == [[0], [1], [2]]

    def test_same_key_groups_split_across_batches(self):
        assert self._plan(["xeon", "xeon"]) == [[0], [1]]

    def test_distinct_keys_share_a_batch(self):
        assert self._plan(["xeon", "epyc"]) == [[0, 1]]

    def test_gen2_mode_batches_everything(self):
        assert self._plan([None, "xeon"], no_false_negatives=True) == [[0, 1]]

    def test_all_requests_planned_exactly_once(self):
        batches = self._plan(["xeon", None, "epyc", "xeon"])
        assert sorted(position for batch in batches for position in batch) == [
            0,
            1,
            2,
            3,
        ]


class ScriptedChannel(CovertChannel):
    """Replays scripted verdicts: ``scripts[call][group]`` is the positive
    tuple for that group in that call (the last call's script repeats).
    ``tests`` logs every test as its instance ids and threshold."""

    def __init__(self, scripts):
        super().__init__()
        self.scripts = [list(call) for call in scripts]
        self.calls = 0
        self.tests = []

    def ctest_batch(self, groups, threshold_m):
        script = self.scripts[min(self.calls, len(self.scripts) - 1)]
        self.calls += 1
        self.tests.extend(
            ("".join(h.instance_id for h in group), threshold)
            for group, threshold in zip(groups, threshold_m)
        )
        self.record_batch([len(g) for g in groups], 1.0)
        return [
            CTestResult(
                handles=tuple(group), positive=tuple(script[i][: len(group)])
            )
            for i, group in enumerate(groups)
        ]


class TestCTestRetryPolicy:
    def _chunk(self):
        return [FakeHandle("a"), FakeHandle("b")]

    def test_default_policy_is_single_rerun(self):
        verifier = ScalableVerifier(ScriptedChannel([[[True, True]]]))
        assert verifier.retry_policy == DEFAULT_CTEST_RETRY

    def test_inconsistent_result_retried_and_counted(self):
        # 1 positive of a pair at threshold 2 is physically impossible
        # without noise; one re-run resolves it.
        channel = ScriptedChannel([[[True, False]], [[True, True]]])
        verifier = ScalableVerifier(channel)
        (result,) = verifier._run_batch([self._chunk()], [2])
        assert result.positive == (True, True)
        assert channel.calls == 2
        assert channel.stats.counter("retries") == 1

    def test_retry_budget_exhausted_keeps_last_result(self):
        channel = ScriptedChannel([[[True, False]]])
        verifier = ScalableVerifier(channel)  # default: one re-run
        (result,) = verifier._run_batch([self._chunk()], [2])
        assert result.positive == (True, False)
        assert channel.calls == 2
        assert channel.stats.counter("retries") == 1

    def test_larger_budget_outlasts_longer_noise(self):
        channel = ScriptedChannel(
            [[[True, False]], [[False, True]], [[True, False]], [[False, False]]]
        )
        verifier = ScalableVerifier(channel, retry_policy=RetryPolicy(max_retries=3))
        (result,) = verifier._run_batch([self._chunk()], [2])
        assert result.positive == (False, False)
        assert channel.calls == 4
        assert channel.stats.counter("retries") == 3

    def test_consistent_results_never_retried(self):
        channel = ScriptedChannel([[[True, True]]])
        verifier = ScalableVerifier(channel, retry_policy=RetryPolicy(max_retries=5))
        verifier._run_batch([self._chunk()], [2])
        assert channel.calls == 1
        assert channel.stats.counter("retries") == 0

    def test_only_inconsistent_slots_rerun(self):
        # Two chunks in one batch: the first is consistent, the second is
        # not — only the second is re-run (once inconsistently, then fine).
        channel = ScriptedChannel(
            [
                [[True, True], [True, False]],
                [[False, True]],
                [[True, True]],
            ]
        )
        verifier = ScalableVerifier(channel, retry_policy=RetryPolicy(max_retries=3))
        chunks = [self._chunk(), [FakeHandle("c"), FakeHandle("d")]]
        first, second = verifier._run_batch(chunks, [2, 2])
        assert first.positive == (True, True)
        assert second.positive == (True, True)
        assert channel.calls == 3
        assert channel.stats.counter("retries") == 2


class TestReentrantStats:
    """Regression: per-call report totals on a shared channel.

    ``VerificationReport`` costs used to be computed by subtracting a
    baseline captured at ``verify()`` entry from raw stats fields — a
    scheme that silently double-counts if the fields are ever reset or the
    channel is reused concurrently.  The snapshot/delta discipline on
    :class:`~repro.telemetry.MetricSet` makes sequential reuse exact:
    each report carries only its own call's tests while the channel's
    stats keep the cumulative totals.
    """

    def test_two_sequential_verifies_report_per_call_and_cumulative(
        self, tiny_env_factory
    ):
        channel = RngCovertChannel()
        verifier = ScalableVerifier(channel)

        env_a = tiny_env_factory(seed=7)
        tagged_a, _ = launch_and_tag(env_a, 30)
        report_a = verifier.verify(tagged_a)

        after_first = channel.stats.counter("tests")
        assert after_first == report_a.n_tests > 0
        assert channel.stats.counter("busy_seconds") == pytest.approx(report_a.busy_seconds)

        env_b = tiny_env_factory(seed=8)
        tagged_b, _ = launch_and_tag(env_b, 24)
        report_b = verifier.verify(tagged_b)

        assert report_b.n_tests > 0
        # Per-call: the second report covers only the second call.
        assert report_b.n_tests == channel.stats.counter("tests") - after_first
        # Cumulative: the shared channel keeps the grand totals.
        assert channel.stats.counter("tests") == report_a.n_tests + report_b.n_tests
        assert channel.stats.counter("busy_seconds") == pytest.approx(
            report_a.busy_seconds + report_b.busy_seconds
        )
        assert channel.stats.counter("batches") == report_a.n_batches + report_b.n_batches

    def test_snapshot_since_isolates_a_window(self, tiny_env):
        channel = RngCovertChannel()
        tagged, _ = launch_and_tag(tiny_env, 20)
        ScalableVerifier(channel).verify(tagged)
        before = channel.stats.snapshot()
        assert channel.stats.since(before) == {}
        ScalableVerifier(channel).verify(tagged)
        delta = channel.stats.since(before)
        assert delta.get("tests", 0) > 0
        assert delta["tests"] <= channel.stats.counter("tests")


class TestHostBasis:
    """Each rule of the host basis, driven through ``verify`` on a
    scripted channel.  Every instance shares one Gen 2 fingerprint, so
    the run is one group and has no step 3; with ``m = 2`` its members
    split into chunks of at most 3, and each scripted call is one test."""

    @staticmethod
    def _verify(ids, scripts, m=2):
        channel = ScriptedChannel([[verdict] for verdict in scripts])
        fingerprint = Gen2Fingerprint(2_000_000)
        report = ScalableVerifier(channel, threshold_m=m).verify(
            [(FakeHandle(iid), fingerprint) for iid in ids]
        )
        clusters = ["".join(h.instance_id for h in c) for c in report.clusters]
        return clusters, channel.tests, report

    def test_unit_joins_the_lit_member_or_becomes_a_new_one(self):
        clusters, tests, report = self._verify(
            "abc",
            [
                (False, False, False),  # chunk abc: no host in common
                (True, True),  # b lights up with a: joins it
                (False, False),  # c lights up with nobody: a new host
            ],
        )
        assert clusters == ["ab", "c"]
        assert tests == [("abc", 2), ("ab", 2), ("ac", 2)]
        assert report.fallback_groups == 1

    def test_basis_tests_run_at_threshold_two_whatever_m(self):
        clusters, tests, _report = self._verify(
            "abc", [(False, False, False), (False, False), (False,) * 3], m=3
        )
        assert clusters == ["a", "b", "c"]
        # At threshold 3, c's test would miss a pair on one host.
        assert tests == [("abc", 3), ("ab", 2), ("abc", 2)]

    @pytest.mark.parametrize(
        "verdict, clusters",
        [
            # a and b lit without c: c is a new host.
            ((True, True, False), ["ab", "c", "d"]),
            # a, b and c lit: c joins the merged member.
            ((True, True, True), ["abc", "d"]),
        ],
    )
    def test_repeated_verdict_merges_a_split_basis(self, verdict, clusters):
        found, tests, _report = self._verify(
            "abcd",
            [
                (False, False),  # chunk ab
                (False, False),  # chunk cd
                (False, False),  # noise: b stays dark next to a
                verdict,
                verdict,  # the same verdict twice: one host
                (False,) * 3,
            ],
        )
        assert found == clusters
        # a and b are one member again: d's test has one of them only.
        assert tests[-1] == ("acd" if "c" in found else "ad", 2)

    def test_unit_ambiguous_twice_stays_alone(self):
        clusters, tests, _report = self._verify(
            "abcd",
            [
                (False, False),
                (False, False),
                (False, False),  # b: a new host
                (True, True, False),  # c: a and b lit ...
                (True, True, True),  # ... then all three: not the same
                (False, False, False),  # d: a new host
            ],
        )
        assert clusters == ["a", "b", "c", "d"]
        # c joined no member and entered no basis: d is tested without it.
        assert tests[-3:] == [("abc", 2), ("abc", 2), ("abd", 2)]


class TestFallbackScanScaling:
    """A large all-negative group makes one basis test per chunk cluster,
    each one representative larger than the last."""

    def test_all_negative_group_drains_quickly(self):
        import time

        n, m = 350, 2
        members = [FakeHandle(f"i{k}") for k in range(n)]
        tests = _group_tests(members, m)
        start = time.perf_counter()
        sizes = []
        test, _threshold = next(tests)
        try:
            while True:
                sizes.append(len(test))
                result = CTestResult(handles=tuple(test), positive=(False,) * len(test))
                test, _threshold = tests.send(result)
        except StopIteration as stop:
            clusters, fell_back = stop.value
        elapsed = time.perf_counter() - start
        n_chunks = len(_balanced_chunks(members, 2 * m - 1))
        assert n_chunks == 117
        assert [len(c) for c in _balanced_chunks(members, 2 * m - 1)] == sizes[:n_chunks]
        assert sizes[n_chunks:] == list(range(2, n + 1))
        assert fell_back
        assert [[h.instance_id for h in c] for c in clusters] == [
            [f"i{k}"] for k in range(n)
        ]
        # Generous even for slow CI machines.
        assert elapsed < 5.0

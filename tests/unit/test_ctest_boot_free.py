"""A CTest batch draws from cold rows as well as hot ones, and nothing
can tell.

:class:`~repro.core.covert.RngCovertChannel` pressures each tested row's
host resource directly and draws each row's window (and the sleeper's
``nanosleep`` overshoot) from the row's stream
(:func:`repro.fleet.probe.sandbox_streams`).  Every test here runs one
scenario twice: as is, and with every live row made hot first (each row
then draws through its cached generator).  The two must agree on
verdicts, ``_last_hits``, reports, host pressurer sets, and every row's
stream afterwards (RNG state, call count, clock offset).  The cold run
must warm no row.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.cloud.api import InstanceHandle
from repro.cloud.services import ServiceConfig
from repro.core.covert import LlcOccupancyChannel, RngCovertChannel
from repro.core.fingerprint import Gen1Fingerprint, fingerprint_gen1_instances
from repro.core.verification import ScalableVerifier
from repro.experiments.base import default_env
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import probe as columnar
from repro.hardware.noise import SyscallNoiseModel
from repro.runner import WorldSnapshot
from tests.conftest import tiny_profile
from tests.unit.test_ctest_vectorized import store_handles

#: Outlier branches fire on almost every boot and every sleeper's jitter.
LOUD = SyscallNoiseModel(
    call_outlier_probability=0.999, sandbox_offset_outlier_probability=0.999
)
KINDS = ("rng", "llc")


@pytest.fixture(autouse=True)
def roomy_rows(monkeypatch):
    """Rows retested many times get a cached generator once their stream
    passes ``HOT_WORDS``; raise it so that only
    :func:`test_rows_past_hot_words_cache_a_generator` reaches it."""
    monkeypatch.setattr(columnar, "HOT_WORDS", 2**14)


@pytest.fixture
def warmed(monkeypatch):
    """The instance id of every row made hot while the test runs."""
    built = []
    original = columnar.warm

    def recording_warm(table, row):
        if row not in table.hot:
            built.append(table.instance_id(row))
        return original(table, row)

    monkeypatch.setattr(columnar, "warm", recording_warm)
    return built


def world(seed=11, n=12, generation="gen1", noise=None, name="svc"):
    env = default_env(profile=tiny_profile(), seed=seed)
    client = env.clients["account-1"]
    handles = client.connect(client.deploy(ServiceConfig(name=name, generation=generation)), n)
    if noise is not None:
        for host in env.datacenter.hosts:
            host.syscall_noise = noise
    return env, handles


def groups_of(handles, size):
    return [handles[i : i + size] for i in range(0, len(handles), size)]


def warm_all(handles):
    for handle in handles:
        if handle.alive:
            handle.run(lambda sandbox: sandbox._rng)


def pressurers(envs):
    return [
        {
            (host.host_id, kind): host.channel_resource(kind).current_pressurers()
            for host in env.datacenter.hosts
            for kind in KINDS
        }
        for env in envs
    ]


def late_states(handles):
    """Each live handle's stream (the row becomes hot): what a later probe
    would start from."""
    states = {}
    for handle in handles:
        if handle.alive:
            sandbox = handle._instance.sandbox
            states[handle.instance_id] = (
                str(sandbox._rng.bit_generator.state),
                sandbox.call_count,
                sandbox.sandbox_offset,
            )
    return states


def twin(scenario, warmed):
    """Run ``scenario(hot)`` with cold rows, and with every row made hot
    first; compare.

    ``scenario`` returns ``(envs, handles, outcome)`` and clears
    ``warmed`` just before the calls it compares.  Returns the ids
    of the rows the cold run made hot in those calls.
    """
    runs = {}
    for hot in (False, True):
        envs, handles, outcome = scenario(hot)
        built = list(warmed)
        runs[hot] = (outcome, pressurers(envs), late_states(handles), built)
    free, eager = runs[False], runs[True]
    assert free[0] == eager[0]
    assert free[1] == eager[1]
    assert free[2] == eager[2]
    assert len(free[2]) > 0
    return free[3]


def batch_outcome(channel, groups, threshold=2):
    results = channel.ctest_batch(groups, threshold)
    return [result.positive for result in results], dict(channel._last_hits)


def verify_outcome(channel, tagged, m=2):
    report = ScalableVerifier(channel, threshold_m=m).verify(tagged)
    return (
        sorted(sorted(h.instance_id for h in cluster) for cluster in report.clusters),
        report.n_tests,
        report.n_batches,
        report.fallback_groups,
        report.merged_false_negatives,
        dict(channel._last_hits),
    )


def test_mixed_booted_probed_and_retested_rows(warmed):
    def scenario(hot):
        env, handles = world()
        for handle in handles[1:4]:
            handle.run(lambda sandbox: sandbox.wall_clock())
        fingerprint_gen1_instances(handles[3:9])
        if hot:
            warm_all(handles)
        warmed.clear()
        channel = RngCovertChannel()
        outcome = [batch_outcome(channel, groups_of(handles, 3))]
        env.clock.sleep(3.0)
        outcome.append(batch_outcome(channel, groups_of(handles[::-1], 4), 3))
        return [env], handles, outcome

    assert twin(scenario, warmed) == []


@pytest.mark.parametrize("m", [2, 3])
def test_verify_retests_rows(warmed, m):
    """One fingerprint over several hosts: chunks, merges, pairwise
    fallback and the false-negative hunt test rows again and again."""

    def scenario(hot):
        env, handles = world(seed=12, n=20)
        if hot:
            warm_all(handles)
        warmed.clear()
        tagged = [(h, Gen1Fingerprint("cpu", 0, 1.0)) for h in handles]
        channel = RngCovertChannel()
        outcome = verify_outcome(channel, tagged, m)
        assert channel._boot_states is None
        return [env], handles, outcome

    assert twin(scenario, warmed) == []


@pytest.mark.parametrize("generation", ["gen1", "gen2"])
def test_boot_draw_replay_rows(warmed, generation):
    """Outlier branches on almost every boot and sleeper jitter: the
    replayed boot states and the counted overshoot words."""

    def scenario(hot):
        env, handles = world(seed=13, generation=generation, noise=LOUD)
        if hot:
            warm_all(handles)
        warmed.clear()
        channel = RngCovertChannel()
        tagged = [(h, i % 3) for i, h in enumerate(handles)]
        outcome = [batch_outcome(channel, groups_of(handles, 2))]
        outcome.append(verify_outcome(channel, tagged))
        return [env], handles, outcome

    assert twin(scenario, warmed) == []


def test_rows_past_hot_words_cache_a_generator(warmed, monkeypatch):
    monkeypatch.setattr(columnar, "HOT_WORDS", 600)

    def scenario(hot):
        env, handles = world(seed=14)
        if hot:
            warm_all(handles)
        warmed.clear()
        channel = RngCovertChannel()
        outcome = [batch_outcome(channel, groups_of(handles, 4)) for _ in range(4)]
        return [env], handles, outcome

    built = twin(scenario, warmed)
    # Rows drew through the shared generator until their streams passed
    # HOT_WORDS, then through a cache; every row got one cache at most.
    env, handles = world(seed=14)
    channel = RngCovertChannel()
    warmed.clear()
    channel.ctest_batch(groups_of(handles, 4), 2)
    assert warmed == []
    assert 0 < len(built) == len(set(built)) <= len(handles)


def test_rows_of_two_worlds_in_one_batch(warmed):
    def scenario(hot):
        first, a = world(seed=15, n=9)
        second, b = world(seed=16, n=9, name="other")
        if hot:
            warm_all(a + b)
        warmed.clear()
        channel = RngCovertChannel()
        groups = [a[:3], b[:3], a[3:6], b[3:6], a[6:], b[6:]]
        return [first, second], a + b, batch_outcome(channel, groups)

    # Each world's cold rows draw through their own boot states.
    assert twin(scenario, warmed) == []


def test_terminated_rows(warmed):
    """Rows dead before the batch read negative; rows the orchestrator
    terminates during the sleep leave no pressure behind."""

    def scenario(hot):
        env, handles = world(seed=17)
        client = env.clients["account-1"]
        gone = client.connect(client.deploy(ServiceConfig(name="gone")), 4)
        doomed = client.connect(client.deploy(ServiceConfig(name="doomed")), 4)
        gone[0].run(lambda sandbox: None)
        client.kill("gone")
        if hot:
            warm_all(handles + doomed)
        warmed.clear()
        env.orchestrator.scheduler.call_at(env.clock.now() + 0.5, lambda: client.kill("doomed"))
        channel = RngCovertChannel()
        groups = groups_of(handles[:4] + gone + doomed + handles[4:], 4)
        outcome = batch_outcome(channel, groups)
        assert not any(h.alive for h in gone + doomed)
        return [env], handles + gone + doomed, outcome

    assert twin(scenario, warmed) == []


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_injected_deaths_and_noise(warmed, seed):
    def scenario(hot):
        env, handles = world(seed=seed, n=16)
        if hot:
            warm_all(handles)
        warmed.clear()
        plan = FaultPlan(FaultSpec(ctest_death_rate=0.3, ctest_noise_rate=0.2, seed=seed))
        channel = RngCovertChannel(fault_plan=plan)
        outcome = [batch_outcome(channel, groups_of(handles, 3))]
        tagged = [(h, Gen1Fingerprint(f"k{i % 4}", i % 4, 1.0)) for i, h in enumerate(handles)]
        outcome.append(verify_outcome(channel, tagged))
        outcome.append(channel.stats.counter("faults_injected"))
        return [env], handles, outcome

    assert twin(scenario, warmed) == []


def test_saturating_llc_kind(warmed):
    def scenario(hot):
        env, handles = world(seed=24, n=24)
        if hot:
            warm_all(handles)
        warmed.clear()
        channel = LlcOccupancyChannel()
        # A 12-way group's threshold sits above the LLC saturation (8).
        outcome = [batch_outcome(channel, [handles[:12], handles[12:]], [10, 2])]
        tagged = [(h, Gen1Fingerprint("cpu", 0, 1.0)) for h in handles]
        outcome.append(verify_outcome(channel, tagged, 3))
        return [env], handles, outcome

    assert twin(scenario, warmed) == []


def test_verify_releases_its_boot_states(warmed, monkeypatch):
    """A verify over ~1,000 cold rows warms none and keeps no boot-state
    columns once it returns."""
    (handles,) = store_handles([3] * 334, seed=5)
    tagged = [
        (h, Gen1Fingerprint(f"k{index // 3}", index // 3, 1.0))
        for index, h in enumerate(handles)
    ]
    channel = RngCovertChannel()
    prepared = []
    real = columnar.BootStates.__init__

    def recording_init(self, table, rows):
        real(self, table, rows)
        prepared.append(len(self.states))

    monkeypatch.setattr(columnar.BootStates, "__init__", recording_init)
    tracemalloc.start()
    try:
        report = ScalableVerifier(channel).verify(tagged)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert report.n_hosts == 334
    # One set of columns for the whole verify, none per batch.
    assert prepared == [len(handles)]
    assert warmed == []
    assert channel._boot_states is None
    held = snapshot.filter_traces([tracemalloc.Filter(True, columnar.__file__)])
    # The columns alone take 36 bytes a row.
    assert sum(stat.size for stat in held.statistics("filename")) < 4096
    assert np.count_nonzero(handles[0]._instance._rows.probe_words[: len(handles)]) == len(
        handles
    )


def test_snapshot_after_boot_free_batch_forks_equal_streams(warmed):
    """A world captured after a batch over cold rows carries each row's
    moved stream in its columns: the fork tests on, and draws through its
    sandboxes, exactly as the original does."""
    env, handles = world(seed=25)
    RngCovertChannel().ctest_batch(groups_of(handles, 3), 2)
    forked = WorldSnapshot.capture(env).fork()
    twins = [
        InstanceHandle(forked.orchestrator.instance_store.instance(h._instance.row))
        for h in handles
    ]
    assert batch_outcome(RngCovertChannel(), groups_of(twins, 4)) == batch_outcome(
        RngCovertChannel(), groups_of(handles, 4)
    )
    assert warmed == []
    assert late_states(twins) == late_states(handles)

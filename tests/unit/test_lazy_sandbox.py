"""Sandboxes boot on first use and are freed at termination.

The orchestrator launches instances without building their sandboxes; an
instance boots its sandbox on the first probe from the seed and boot time
its :class:`~repro.fleet.InstanceStore` row recorded at launch.  A
fingerprint batch probes unbooted rows without booting them
(:mod:`repro.fleet.probe`): it draws each row's first words as array
operations and records how far its stream and clock-read count moved, so
a later boot lands where a probed sandbox would be.  The twin tests here
pin that columnar probe to the per-probe oracle
(:mod:`tests.oracles.fingerprint`) and to the eager per-instance launch
oracle (:mod:`tests.oracles.launch`, which builds every sandbox at
launch): equal fingerprints, the same error at the same handle, and equal
sandboxes afterwards (boot wall time, syscall offset and call count, Gen 2
TSC offset, first ``rdtsc`` readings and the sandbox RNG state).  The
matrix covers both generations under both TSC policies, launch-retry
backoff that moves the clock inside a batch, re-probes, duplicates,
frequency-less hosts, outlier branches and ziggurat rejections.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cloud.api import InstanceHandle
from repro.cloud.services import ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import (
    fingerprint_gen1_instances,
    fingerprint_gen2_instances,
    gen1_boot_times,
)
from repro.errors import InstanceGoneError, PrivilegeError
from repro.experiments.base import default_env
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import probe as columnar
from repro.hardware.cpu import CPUModel
from repro.hardware.noise import SyscallNoiseModel
from repro.runner import WorldSnapshot
from repro.sandbox.base import Sandbox, TscPolicy
from repro.sandbox.microvm import MicroVMSandbox
from tests.conftest import tiny_profile
from tests.oracles.fingerprint import fingerprint_gen1_per_probe, fingerprint_gen2_per_probe
from tests.oracles.launch import bind_scalar_launch

#: Outlier branches fire on almost every call and on every other boot.
LOUD = SyscallNoiseModel(call_outlier_probability=0.999, sandbox_offset_outlier_probability=0.5)


class FirstAttemptFails(FaultPlan):
    """The first launch attempt of the listed instance numbers fails."""

    def __init__(self, *numbers: int) -> None:
        super().__init__(FaultSpec())
        self._suffixes = tuple(f"#{n:07d}" for n in numbers)

    def launch_would_fail(self, instance_id: str, attempt: int) -> bool:
        return attempt == 0 and instance_id.endswith(self._suffixes)


@pytest.fixture
def sandbox_inits(monkeypatch):
    """Every sandbox built while the test runs."""
    built = []
    original = Sandbox.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Sandbox, "__init__", counting_init)
    return built


def booted(handles) -> list[bool]:
    return [h._instance._sandbox is not None for h in handles]


def boot_observables(sandbox: Sandbox) -> dict:
    """Everything a boot and the probes since fix, read before the RNG is
    touched again."""
    observed = {
        "class": type(sandbox).__name__,
        "boot_wall_time": sandbox.boot_wall_time,
        "sandbox_offset": sandbox.syscalls.sandbox_offset,
        "call_count": sandbox.syscalls.call_count,
        "rng": str(sandbox._rng.bit_generator.state),
        "tsc_offset": getattr(sandbox, "_tsc_offset", None),
    }
    observed["rdtsc"] = [sandbox.rdtsc() for _ in range(3)]
    observed["wall_clock"] = sandbox.wall_clock()
    return observed


def launch_world(boot: str, generation: str, tsc_policy: TscPolicy, faulted: bool):
    """Launch 10 instances, fingerprint them and observe their sandboxes.

    ``boot`` is ``"eager"`` (the launch oracle, then per-probe
    fingerprints), ``"lazy"`` (per-probe fingerprints boot each sandbox)
    or ``"batch"`` (the columnar probe, which boots none; the observation
    boots them).
    """
    plan = FirstAttemptFails(3, 7) if faulted else None
    env = default_env(
        profile=tiny_profile(), seed=11, tsc_policy=tsc_policy, fault_plan=plan
    )
    orch = env.orchestrator
    if boot == "eager":
        bind_scalar_launch(orch)
    service = orch.deploy_service(
        "account-1", ServiceConfig(name="svc", generation=generation)
    )
    instances = orch.scale_to(service, 10)
    booted_at_launch = [i._sandbox is not None for i in instances]
    orch.clock.sleep(42.0)
    handles = [InstanceHandle(i) for i in instances]
    fingerprint = fingerprint_gen1_instances if boot == "batch" else fingerprint_gen1_per_probe
    tagged = [(h.instance_id, fp) for h, fp in fingerprint(handles)]
    if boot == "batch":
        assert not any(booted(handles))
    observed = [boot_observables(i.sandbox) for i in instances]
    return booted_at_launch, tagged, observed


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "backoff"])
@pytest.mark.parametrize("tsc_policy", list(TscPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("generation", ["gen1", "gen2"])
def test_late_boot_matches_eager_boot(generation, tsc_policy, faulted):
    eager_booted, eager_tagged, eager = launch_world("eager", generation, tsc_policy, faulted)
    lazy_booted, lazy_tagged, lazy = launch_world("lazy", generation, tsc_policy, faulted)
    batch_booted, batch_tagged, batch = launch_world("batch", generation, tsc_policy, faulted)
    assert all(eager_booted)
    assert not any(lazy_booted) and not any(batch_booted)
    assert lazy_tagged == eager_tagged and batch_tagged == eager_tagged
    assert len(eager_tagged) == 10
    assert lazy == eager
    assert batch == eager
    boot_times = {o["boot_wall_time"] for o in eager}
    # Retry backoff sleeps inside the batch, so later segments boot later.
    assert len(boot_times) == (3 if faulted else 1)
    reads = 2 if tsc_policy is TscPolicy.EMULATED else 1
    assert {o["call_count"] for o in eager} == {reads}
    if generation == "gen2":
        assert all(o["tsc_offset"] is not None for o in eager)


def sandbox_states(handles) -> list[tuple]:
    """Each handle's sandbox stream and call count, booting it if needed."""
    states = []
    for handle in handles:
        sandbox = handle._instance.sandbox
        states.append(
            (
                str(sandbox._rng.bit_generator.state),
                sandbox.syscalls.sandbox_offset,
                sandbox.syscalls.call_count,
            )
        )
    return states


def probe_world(generation: str, tsc_policy: TscPolicy, noise: str):
    """60 handles: two booted and probed, one on a host whose model name
    has no frequency; ``noise="loud"`` gives every host :data:`LOUD`."""
    env = default_env(profile=tiny_profile(), seed=11, tsc_policy=tsc_policy)
    client = env.attacker
    handles = client.connect(
        client.deploy(ServiceConfig(name="svc", generation=generation)), 60
    )
    if noise == "loud":
        for host in env.datacenter.hosts:
            host.syscall_noise = LOUD
    for handle in (handles[1], handles[6]):
        handle.run(lambda sandbox: sandbox.wall_clock())
    host = env.datacenter.host(env.orchestrator.true_host_of(handles[3].instance_id))
    host.cpu = CPUModel("Mystery CPU", host.cpu.base_frequency_hz)
    return env, handles


#: The re-probe batch: every third handle, then five listed twice.
REPROBE = list(range(0, 60, 3)) + list(range(5)) + [4, 5]


def probe_rounds(fingerprint, generation, tsc_policy, noise):
    """Probe a world four times: everything, a re-probe with duplicates,
    everything again later, then once more after every sandbox booted."""
    env, handles = probe_world(generation, tsc_policy, noise)

    def tagged(batch, p_boot=1.0):
        return [(h.instance_id, fp) for h, fp in fingerprint(batch, p_boot)]

    rounds = [tagged(handles)]
    rounds.append(tagged([handles[i] for i in REPROBE], 1e-3))
    env.clock.sleep(17.5)
    rounds.append(tagged(handles))
    probed_unbooted = booted(handles)
    states = sandbox_states(handles)
    rounds.append(tagged(handles))
    return rounds, probed_unbooted, states, sandbox_states(handles)


@pytest.mark.parametrize("noise", ["quiet", "loud"])
@pytest.mark.parametrize("tsc_policy", list(TscPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("generation", ["gen1", "gen2"])
def test_reprobed_rows_match_per_probe(generation, tsc_policy, noise, monkeypatch):
    replayed = []
    replay = columnar._replay

    def counting_replay(*args):
        replayed.append(args)
        return replay(*args)

    monkeypatch.setattr(columnar, "_replay", counting_replay)
    oracle = probe_rounds(fingerprint_gen1_per_probe, generation, tsc_policy, noise)
    assert not replayed
    batch = probe_rounds(fingerprint_gen1_instances, generation, tsc_policy, noise)
    assert batch[0] == oracle[0]
    assert batch[2] == oracle[2]
    assert batch[3] == oracle[3]
    # Only the handles probed before the batches, and the second listing
    # of a handle in one batch (the per-probe path), ever booted.
    listed_twice = {i for i in REPROBE if REPROBE.count(i) > 1}
    assert listed_twice == {0, 3, 4}
    assert batch[1] == [i in (1, 6) or i in listed_twice for i in range(60)]
    # Gen 1 skips the frequency-less host's instances; a Gen 2 guest sees
    # the hypervisor's model, which names a frequency.
    assert (len(batch[0][0]) < 60) == (generation == "gen1")
    # Outlier branches, ziggurat rejections and re-probes all replayed.
    assert len(replayed) > (100 if noise == "loud" else 3)
    assert any(skipped for _rng, _bits, _noise, skipped, _sampled in replayed)


def test_rows_at_counter_limits_take_the_per_probe_path(monkeypatch):
    # Under EMULATED a probe makes two clock reads, so every row probed
    # once as columns reaches the limit and boots on its next probe.
    monkeypatch.setattr(columnar, "_READS_LIMIT", 2)
    oracle = probe_rounds(fingerprint_gen1_per_probe, "gen1", TscPolicy.EMULATED, "quiet")
    batch = probe_rounds(fingerprint_gen1_instances, "gen1", TscPolicy.EMULATED, "quiet")
    assert [batch[i] for i in (0, 2, 3)] == [oracle[i] for i in (0, 2, 3)]
    # Every row with a sample booted on its second probe.
    assert sum(batch[1]) >= len(batch[0][0])


def test_port_rejections_replay(monkeypatch):
    """Quiet hosts still send ziggurat rejection words to the replay path."""
    rejected = []
    normal = columnar.standard_normal

    def recording_normal(raw):
        values, fast = normal(raw)
        rejected.append(int((~fast).sum()))
        return values, fast

    monkeypatch.setattr(columnar, "standard_normal", recording_normal)
    _env, handles = probe_world("gen1", TscPolicy.NATIVE, "quiet")
    batch = [(h.instance_id, fp) for h, fp in fingerprint_gen1_instances(list(handles))]
    assert sum(rejected) > 0
    _env, twin = probe_world("gen1", TscPolicy.NATIVE, "quiet")
    assert batch == [(h.instance_id, fp) for h, fp in fingerprint_gen1_per_probe(twin)]
    assert sandbox_states(handles) == sandbox_states(twin)


def mixed_world():
    """Eight live handles (two booted and probed) and two terminated ones
    (one had booted); ``live[3]``'s host model name has no frequency."""
    env = default_env(profile=tiny_profile(), seed=11)
    client = env.attacker
    live = client.connect(client.deploy(ServiceConfig(name="live")), 8)
    gone = client.connect(client.deploy(ServiceConfig(name="gone")), 2)
    for handle in (live[1], live[6], gone[0]):
        handle.run(lambda sandbox: sandbox.wall_clock())
    client.kill("gone")
    host = env.datacenter.host(env.orchestrator.true_host_of(live[3].instance_id))
    host.cpu = CPUModel("Mystery CPU", host.cpu.base_frequency_hz)
    return env, live, gone


def fingerprint_mixed(fingerprint):
    """Fingerprint a mixed batch that hits a terminated handle, then the
    live handles alone."""
    env, live, gone = mixed_world()
    with pytest.raises(InstanceGoneError) as raised:
        fingerprint(live[:4] + [gone[1]] + live[4:] + [gone[0]])
    booted_after_raise = booted(live + gone)
    after_raise = sandbox_states(live)
    tagged = fingerprint(live)
    return {
        "gone_id": gone[1].instance_id,
        "live": {h.instance_id for h in live},
        "error": str(raised.value),
        "booted": booted_after_raise,
        "after_raise": after_raise,
        "tagged": [(h.instance_id, fp) for h, fp in tagged],
        "after_run": sandbox_states(live),
        "frequency_less": {
            h.instance_id
            for h in live
            if env.orchestrator.true_host_of(h.instance_id)
            == env.orchestrator.true_host_of(live[3].instance_id)
        },
    }


def test_mixed_batch_matches_per_probe_boot():
    oracle = fingerprint_mixed(fingerprint_gen1_per_probe)
    batch = fingerprint_mixed(fingerprint_gen1_instances)
    # The terminated handle raises after the same probes.
    assert batch["gone_id"] in batch["error"]
    assert batch["error"] == oracle["error"]
    assert oracle["booted"] == [True] * 4 + [False, False, True, False] + [False] * 2
    # The columnar probe boots nothing: only the handles probed before
    # the batch (and the terminated one's freed sandbox) differ.
    assert batch["booted"] == [False, True] + [False] * 4 + [True, False] + [False] * 2
    # Probed as columns or in their sandbox, every stream is in the same
    # state after the raise and after a full run.
    assert batch["after_raise"] == oracle["after_raise"]
    assert batch["after_run"] == oracle["after_run"]
    assert batch["tagged"] == oracle["tagged"]
    fingerprinted = {instance_id for instance_id, _ in batch["tagged"]}
    assert batch["live"] - fingerprinted == batch["frequency_less"]
    assert len(fingerprinted) == len(batch["tagged"]) < len(batch["live"])


def test_batch_probe_boots_no_sandbox(tiny_env, sandbox_inits):
    client = tiny_env.attacker
    gen1 = client.connect(client.deploy(ServiceConfig(name="g1")), 12)
    gen2 = client.connect(client.deploy(ServiceConfig(name="g2", generation="gen2")), 12)
    assert len(fingerprint_gen1_instances(gen1 + gen2)) == 24
    assert len(fingerprint_gen1_instances(gen1)) == 12
    assert len(gen1_boot_times(gen2)) == 12
    assert len(fingerprint_gen2_instances(gen2)) == 12
    assert sandbox_inits == []
    assert not any(booted(gen1 + gen2))


def test_unrounded_boot_times_round_to_the_fingerprints():
    def handles():
        env = default_env(profile=tiny_profile(), seed=42)
        return env.attacker.connect(env.attacker.deploy(ServiceConfig(name="svc")), 8)

    batch = handles()
    raw = gen1_boot_times(batch)
    assert [h for h, _model, _boot in raw] == batch
    oracle = fingerprint_gen1_per_probe(handles(), 0.25)
    assert [(model, round(boot / 0.25)) for _h, model, boot in raw] == [
        (fp.cpu_model, fp.boot_bucket) for _h, fp in oracle
    ]


def gen2_world(tsc_policy: TscPolicy):
    env = default_env(profile=tiny_profile(), seed=11, tsc_policy=tsc_policy)
    client = env.attacker
    vms = client.connect(client.deploy(ServiceConfig(name="vm", generation="gen2")), 6)
    containers = client.connect(client.deploy(ServiceConfig(name="gv")), 2)
    gone = client.connect(client.deploy(ServiceConfig(name="gone", generation="gen2")), 1)
    client.kill("gone")
    vms[2].run(lambda sandbox: sandbox.wall_clock())
    return vms, containers, gone


def gen2_outcomes(fingerprint, tsc_policy):
    vms, containers, gone = gen2_world(tsc_policy)
    outcomes = [[(h.instance_id, fp) for h, fp in fingerprint(vms)]]
    for batch in (vms[:3] + containers[1:] + vms[3:], vms[:2] + gone + vms):
        with pytest.raises((PrivilegeError, InstanceGoneError)) as raised:
            fingerprint(batch)
        outcomes.append((type(raised.value), str(raised.value)))
    return outcomes, sandbox_states(vms + containers)


@pytest.mark.parametrize("tsc_policy", list(TscPolicy), ids=lambda p: p.value)
def test_gen2_read_matches_per_probe(tsc_policy):
    oracle = gen2_outcomes(fingerprint_gen2_per_probe, tsc_policy)
    batch = gen2_outcomes(fingerprint_gen2_instances, tsc_policy)
    assert batch == oracle
    (tagged, privilege, gone), _states = batch
    assert len(tagged) == 6
    assert privilege[0] is PrivilegeError and gone[0] is InstanceGoneError
    if tsc_policy is TscPolicy.EMULATED:
        # The hypervisor advertises the model's labeled frequency.
        assert all(fp.tsc_khz % 10_000 == 0 for _id, fp in tagged)


def test_snapshot_after_columnar_probe_forks_equal_rng_states():
    env, live, _gone = mixed_world()
    fingerprint_gen1_instances(live)
    forked = WorldSnapshot.capture(env).fork()
    forked_live = [
        InstanceHandle(forked.orchestrator.instance_store.instance(h._instance.row))
        for h in live
    ]
    assert booted(forked_live) == booted(live)
    assert [h.instance_id for h in forked_live] == [h.instance_id for h in live]
    # Booted in the fork or in the original, each sandbox continues from
    # where the columnar probe left its row.
    assert sandbox_states(forked_live) == sandbox_states(live)
    _twin_env, twin, _ = mixed_world()
    fingerprint_gen1_per_probe(twin)
    assert sandbox_states(forked_live) == sandbox_states(twin)
    assert fingerprint_gen1_instances(forked_live) == [
        (forked_live[live.index(h)], fp) for h, fp in fingerprint_gen1_instances(live)
    ]


def deploy(env, name="svc", **config):
    client = env.clients["account-1"]
    return client, client.deploy(ServiceConfig(name=name, **config))


class TestLifecycle:
    def test_never_probed_instance_never_boots(self, tiny_env, monkeypatch):
        booted = []
        original = Sandbox.__init__

        def counting_init(self, *args, **kwargs):
            booted.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Sandbox, "__init__", counting_init)
        client, name = deploy(tiny_env)
        handles = client.connect(name, 6)
        assert [h.generation for h in handles] == ["gen1"] * 6
        client.disconnect(name)
        client.wait(tiny_env.datacenter.profile.idle_deadline + 1.0)
        assert not any(h.alive for h in handles)
        assert [h.generation for h in handles] == ["gen1"] * 6
        assert booted == []

    def test_probe_boots_only_that_instance(self, tiny_env):
        client, name = deploy(tiny_env)
        handles = client.connect(name, 4)
        handles[1].run(lambda sandbox: sandbox.rdtsc())
        assert [h._instance._sandbox is not None for h in handles] == [
            False, True, False, False,
        ]

    def test_terminated_instance_frees_its_sandbox(self, tiny_env):
        client, name = deploy(tiny_env)
        (handle,) = client.connect(name, 1)
        ref = weakref.ref(handle.run(lambda sandbox: sandbox))
        assert ref() is not None
        client.kill(name)
        gc.collect()
        assert ref() is None
        assert handle._instance._sandbox is None

    def test_terminated_instance_sandbox_raises_gone(self, tiny_env):
        client, name = deploy(tiny_env, generation="gen2")
        booted, unbooted = client.connect(name, 2)
        booted.run(lambda sandbox: None)
        client.kill(name)
        for handle in (booted, unbooted):
            with pytest.raises(InstanceGoneError):
                handle._instance.sandbox
            with pytest.raises(InstanceGoneError):
                handle.run(lambda sandbox: None)
            assert handle.generation == "gen2"
            assert handle._instance.sandbox_class is MicroVMSandbox

    def test_eq_and_repr_do_not_boot(self, tiny_env):
        client, name = deploy(tiny_env)
        first, second = (h._instance for h in client.connect(name, 2))
        assert first != second
        assert first == first
        assert first.instance_id in repr(first)
        assert first._sandbox is None and second._sandbox is None

    def test_ctest_batch_boots_no_sandbox(self, tiny_env_factory, sandbox_inits):
        """A CTest batch boots none of the rows it tests; booted later,
        each sandbox is the one the batch would have left behind."""
        worlds = {}
        for label in ("boot-free", "booted"):
            env = tiny_env_factory(seed=3)
            client, name = deploy(env)
            handles = client.connect(name, 5)
            if label == "booted":
                for handle in handles:
                    handle.run(lambda sandbox: None)
            sandbox_inits.clear()
            results = RngCovertChannel().ctest_batch([handles[:3], handles[3:]], 2)
            worlds[label] = {
                "built": len(sandbox_inits),
                "booted": booted(handles),
                "positives": [result.positive for result in results],
                "states": sandbox_states(handles),
            }
        free, eager = worlds["boot-free"], worlds["booted"]
        assert free["built"] == 0 and free["booted"] == [False] * 5
        assert free["positives"] == eager["positives"]
        assert free["states"] == eager["states"]

"""Sandboxes boot on first use and are freed at termination.

The orchestrator launches instances without building their sandboxes; an
instance boots its sandbox on the first probe from the seed and boot time
its :class:`~repro.fleet.InstanceStore` row recorded at launch, or with its
fingerprint batch (:meth:`~repro.cloud.api.InstanceHandle.boot_batch`,
which seeds every pending row in one vectorized step).  The twin tests
here launch one world through the eager per-instance oracle
(:mod:`tests.oracles.launch`, which builds every sandbox at launch), one
through the orchestrator with lazy boots and one with a batch boot, then
pin every boot-time observable equal: boot wall time, syscall offset,
Gen 2 TSC offset, first ``rdtsc`` readings and the sandbox RNG state.  The
matrix covers both generations under both TSC policies and launch-retry
backoff that moves the clock inside a batch.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cloud.api import InstanceHandle
from repro.cloud.services import ServiceConfig
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.errors import InstanceGoneError
from repro.experiments.base import default_env
from repro.faults import FaultPlan, FaultSpec
from repro.hardware.cpu import CPUModel
from repro.runner import WorldSnapshot
from repro.sandbox.base import Sandbox, TscPolicy
from repro.sandbox.microvm import MicroVMSandbox
from tests.conftest import tiny_profile
from tests.oracles.launch import bind_scalar_launch


class FirstAttemptFails(FaultPlan):
    """The first launch attempt of the listed instance numbers fails."""

    def __init__(self, *numbers: int) -> None:
        super().__init__(FaultSpec())
        self._suffixes = tuple(f"#{n:07d}" for n in numbers)

    def launch_would_fail(self, instance_id: str, attempt: int) -> bool:
        return attempt == 0 and instance_id.endswith(self._suffixes)


def boot_observables(sandbox: Sandbox) -> dict:
    """Everything an eager boot fixes, read before the RNG is touched."""
    observed = {
        "class": type(sandbox).__name__,
        "boot_wall_time": sandbox.boot_wall_time,
        "sandbox_offset": sandbox.syscalls.sandbox_offset,
        "rng": str(sandbox._rng.bit_generator.state),
        "tsc_offset": getattr(sandbox, "_tsc_offset", None),
    }
    observed["rdtsc"] = [sandbox.rdtsc() for _ in range(3)]
    observed["wall_clock"] = sandbox.wall_clock()
    return observed


def launch_world(boot: str, generation: str, tsc_policy: TscPolicy, faulted: bool):
    """Launch 10 instances and observe them; ``boot`` is ``"eager"`` (the
    oracle), ``"lazy"`` (first probe) or ``"batch"`` (one batch boot)."""
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
    if boot == "batch":
        InstanceHandle.boot_batch([InstanceHandle(i) for i in instances])
        assert all(i._sandbox is not None for i in instances)
    observed = [boot_observables(i.sandbox) for i in instances]
    return booted_at_launch, observed


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "backoff"])
@pytest.mark.parametrize("tsc_policy", list(TscPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("generation", ["gen1", "gen2"])
def test_late_boot_matches_eager_boot(generation, tsc_policy, faulted):
    eager_booted, eager = launch_world("eager", generation, tsc_policy, faulted)
    lazy_booted, lazy = launch_world("lazy", generation, tsc_policy, faulted)
    batch_booted, batch = launch_world("batch", generation, tsc_policy, faulted)
    assert all(eager_booted)
    assert not any(lazy_booted) and not any(batch_booted)
    assert lazy == eager
    assert batch == eager
    boot_times = {o["boot_wall_time"] for o in eager}
    # Retry backoff sleeps inside the batch, so later segments boot later.
    assert len(boot_times) == (3 if faulted else 1)
    if generation == "gen2":
        assert all(o["tsc_offset"] is not None for o in eager)


def rng_states(handles) -> list[str]:
    """Each handle's sandbox RNG state, booting any unbooted one lazily."""
    return [str(h._instance.sandbox._rng.bit_generator.state) for h in handles]


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


def fingerprint_mixed(batch: bool):
    """Fingerprint a mixed batch that hits a terminated handle, then the
    live handles alone; ``batch=False`` patches the batch boot out, so
    each sandbox boots on its own probe."""
    env, live, gone = mixed_world()
    with pytest.MonkeyPatch.context() as patch:
        if not batch:
            patch.setattr(InstanceHandle, "boot_batch", staticmethod(lambda handles: None))
        with pytest.raises(InstanceGoneError) as raised:
            fingerprint_gen1_instances(live[:4] + [gone[1]] + live[4:] + [gone[0]])
        booted = [h._instance._sandbox is not None for h in live + gone]
        after_raise = rng_states(live)
        tagged = fingerprint_gen1_instances(live)
    return {
        "gone_id": gone[1].instance_id,
        "live": {h.instance_id for h in live},
        "error": str(raised.value),
        "booted": booted,
        "after_raise": after_raise,
        "tagged": [(h.instance_id, fp) for h, fp in tagged],
        "after_run": rng_states(live),
        "frequency_less": {
            h.instance_id
            for h in live
            if env.orchestrator.true_host_of(h.instance_id)
            == env.orchestrator.true_host_of(live[3].instance_id)
        },
    }


def test_mixed_batch_matches_per_probe_boot():
    parent = fingerprint_mixed(batch=False)
    batch = fingerprint_mixed(batch=True)
    # The terminated handle raises from its own probe, after the same
    # probes; the batch boot skipped both terminated handles.
    assert batch["gone_id"] in batch["error"]
    assert batch["error"] == parent["error"]
    assert parent["booted"] == [True] * 4 + [False, False, True, False] + [False] * 2
    assert batch["booted"] == [True] * 8 + [False] * 2
    # Booted by the batch or lazily, every sandbox is in the same state.
    assert batch["after_raise"] == parent["after_raise"]
    assert batch["after_run"] == parent["after_run"]
    assert batch["tagged"] == parent["tagged"]
    fingerprinted = {instance_id for instance_id, _ in batch["tagged"]}
    assert batch["live"] - fingerprinted == batch["frequency_less"]
    assert len(fingerprinted) == len(batch["tagged"]) < len(batch["live"])


def test_snapshot_after_batch_boot_forks_equal_rng_states():
    env, live, _gone = mixed_world()
    InstanceHandle.boot_batch(live)
    forked = WorldSnapshot.capture(env).fork()

    def states(world):
        return [
            (h.instance_id, str(h._sandbox._rng.bit_generator.state))
            for h in world.orchestrator.instance_store.handles
            if h._sandbox is not None
        ]

    assert len(states(forked)) == len(live) == len(states(env))
    assert states(forked) == states(env)
    _twin_env, twin, _ = mixed_world()
    assert [state for _, state in states(forked)] == rng_states(twin)


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

    def test_run_batch_boots_grouped_sandboxes(self, tiny_env):
        client, name = deploy(tiny_env)
        handles = client.connect(name, 5)
        groups = InstanceHandle.run_batch(
            handles, lambda sandboxes: [s.sandbox_id for s in sandboxes]
        )
        assert sorted(sid for _, ids in groups for sid in ids) == sorted(
            h.instance_id for h in handles
        )
        assert all(h._instance._sandbox is not None for h in handles)

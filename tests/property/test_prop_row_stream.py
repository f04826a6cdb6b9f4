"""Every draw from a row goes through one stream, whatever draws it.

A row's stream (:class:`repro.fleet.probe.RowStream`) serves columnar
Gen 1 batches, CTest windows and sleepers, and the scalar probes a
sandbox view runs; a row draws through the shared generator while cold
and through a cached generator once hot.  Random interleavings of those
operations on a few rows of one world must give what the same sequence
gives in a world whose rows run in self-contained eager sandboxes
(:mod:`tests.oracles.sandbox`, probed one instance and one round at a
time): the same samples, verdicts and ``_last_hits``, the same errors,
and the same next 16 draws and call count of every live row.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cloud.api import InstanceHandle
from repro.cloud.services import ServiceConfig
from repro.core.covert import RngCovertChannel
from repro.core.fingerprint import gen1_boot_times
from repro.errors import FingerprintError, InstanceGoneError
from repro.experiments.base import default_env
from repro.faults import FaultPlan, FaultSpec
from repro.hardware.noise import SyscallNoiseModel
from repro.runner import WorldSnapshot
from tests.conftest import tiny_profile
from tests.oracles.ctest import loop_reference
from tests.oracles.fingerprint import gen1_fingerprint_probe
from tests.oracles.launch import bind_scalar_launch
from tests.oracles.sandbox import EagerHandle

#: Outlier branches fire on many boots and calls: replays, multi-word draws.
NOISY = SyscallNoiseModel(call_outlier_probability=0.3, sandbox_offset_outlier_probability=0.3)
N_GEN1, N_GEN2 = 6, 2
N = N_GEN1 + N_GEN2
EagerChannel = loop_reference(RngCovertChannel)


def launch(eager: bool, seed: int):
    """A world of ``N`` rows; ``eager`` runs them in eager sandboxes."""
    env = default_env(profile=tiny_profile(), seed=seed)
    if eager:
        bind_scalar_launch(env.orchestrator)
    for host in env.datacenter.hosts:
        host.syscall_noise = NOISY
    client = env.attacker
    handles = [
        *client.connect(client.deploy(ServiceConfig(name="one")), N_GEN1),
        *client.connect(client.deploy(ServiceConfig(name="two", generation="gen2")), N_GEN2),
    ]
    return env, rehandle(env, handles, eager)


def rehandle(env, handles, eager: bool):
    """The handles of ``handles``' rows in ``env``."""
    store = env.orchestrator.instance_store
    cls = EagerHandle if eager else InstanceHandle
    return [cls(store.instance(h._instance.row)) for h in handles]


def outcome(call):
    try:
        return call()
    except InstanceGoneError as error:
        return ("gone", str(error))


def scalar_probe(kind: str):
    if kind == "track":
        return gen1_fingerprint_probe
    if kind == "sleep":
        return lambda sandbox: sandbox.sleep(0.25)
    return lambda sandbox: sandbox.serve_request(0.01)


def apply(op, world, eager: bool):
    """Run one operation on a world; returns what it observed."""
    env, handles = world
    kind = op[0]
    if kind == "gen1":
        batch = [handles[i] for i in op[1]]
        if eager:
            # The per-probe loop: each instance runs the guest probe.
            def loop():
                samples = []
                for handle in batch:
                    try:
                        sample = handle.run(gen1_fingerprint_probe)
                    except FingerprintError:
                        continue
                    samples.append((handle.instance_id, sample.cpu_model, sample.boot_time()))
                return samples

            return outcome(loop), world
        return outcome(
            lambda: [(h.instance_id, model, boot) for h, model, boot in gen1_boot_times(batch)]
        ), world
    if kind == "ctest":
        _kind, picked, size, fault_seed = op
        plan = None
        if fault_seed:
            spec = FaultSpec(ctest_death_rate=0.3, ctest_noise_rate=0.2, seed=fault_seed)
            plan = FaultPlan(spec)
        channel = (EagerChannel if eager else RngCovertChannel)(fault_plan=plan)
        groups = [
            [handles[i] for i in picked[start : start + size]]
            for start in range(0, len(picked), size)
        ]
        results = channel.ctest_batch(groups, 2)
        return ([r.positive for r in results], channel._last_hits), world
    if kind == "probe":
        _kind, index, probe = op
        value = outcome(lambda: handles[index].run(scalar_probe(probe)))
        return (value, env.clock.now()), world
    if kind == "fork":
        forked = WorldSnapshot.capture(env).fork()
        return None, (forked, rehandle(forked, handles, eager))
    _kind, index = op  # kill
    row = handles[index]._instance.row
    env.orchestrator._terminate(np.array([row]), env.clock.now())
    return None, world


def next_draws(world, eager: bool):
    """Each live row's next 16 uniforms and call count."""
    env, handles = world
    table = env.orchestrator.instance_store._rows
    draws = {}
    for handle in handles:
        row = handle._instance.row
        if not handle.alive:
            continue
        if eager:
            sandbox = table.eager[row]
            values, calls = sandbox._rng.random(16), sandbox.call_count
        else:
            values = np.empty(16)
            table.stream(row).random(out=values)
            calls = int(table.clock_reads[row])
        draws[handle.instance_id] = (values.tolist(), calls)
    return draws


index = st.integers(0, N - 1)
operations = st.one_of(
    st.tuples(st.just("gen1"), st.lists(index, min_size=1, max_size=10)),
    st.tuples(
        st.just("ctest"),
        st.lists(index, min_size=1, max_size=N, unique=True),
        st.integers(2, 4),
        st.integers(0, 3),
    ),
    st.tuples(st.just("probe"), index, st.sampled_from(["track", "sleep", "serve"])),
    st.tuples(st.just("fork")),
    st.tuples(st.just("kill"), index),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 3), st.lists(operations, max_size=8))
def test_row_streams_match_eager_sandboxes(seed, ops):
    rows_world, eager_world = launch(False, seed), launch(True, seed)
    for op in ops:
        seen, rows_world = apply(op, rows_world, eager=False)
        expected, eager_world = apply(op, eager_world, eager=True)
        assert seen == expected, op
    assert next_draws(rows_world, eager=False) == next_draws(eager_world, eager=True)

"""Twin-world identity suite for the hyperscale batched paths.

Three layers run batched: the orchestrator launch commit (segmented
vector sandbox-seed draws plus batched count commits), the helper-host
recruiter (gathered id resolution), and the census aggregation
(:class:`~repro.analysis.aggregation.FootprintAccumulator`).  Each test
here builds two byte-identical worlds from one seed, runs the scalar
reference from :mod:`tests.oracles` in one and the batched engine in the
other, and pins placements, sandbox RNG end states, the orchestrator RNG
end state, service-count columns, load columns and fault counters exactly
equal — the same contract the golden traces enforce end-to-end, exercised
over a seed x shape matrix that includes mid-campaign instance deaths,
``InstanceGoneError`` handling, fault-injected launch failures and retry
backoff sleeps that fire background-traffic clock hooks.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.aggregation import FootprintAccumulator
from repro.cloud.loadbalancer import HelperHostRecruiter
from repro.cloud.services import Service, ServiceConfig
from repro.cloud.traffic import TrafficConfig
from repro.errors import InstanceGoneError, LaunchError
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import FleetStore
from tests.oracles.census import census_reduce_scalar
from tests.oracles.launch import bind_scalar_launch


def orch_rng_state(env) -> str:
    return str(env.orchestrator._rng.bit_generator.state)


def sandbox_rng_state(handle) -> str:
    return handle.run(lambda sandbox: str(sandbox._rng.bit_generator.state))


def run_campaign(
    env, *, n, launches, kill_mid=False, idle_deaths=False, max_instances=100
):
    """One deploy/connect/disconnect campaign; returns its observable state.

    ``idle_deaths`` waits into the idle-reap window between launches so
    later launches top up a partially dead fleet; ``kill_mid`` terminates
    one instance directly and asserts the handle raises
    ``InstanceGoneError`` afterwards.
    """
    client = env.clients["account-1"]
    orch = env.orchestrator
    profile = env.datacenter.profile
    name = client.deploy(ServiceConfig(name="svc", max_instances=max_instances))
    qualified = client._service(name).qualified_name

    hosts_per_launch = []
    gone_raised = 0
    last_handles = []
    for launch_round in range(launches):
        handles = client.connect(name, n)
        hosts_per_launch.append(
            [orch.true_host_of(h.instance_id) for h in handles]
        )
        if kill_mid and launch_round == 0:
            victim = handles[0]
            orch.instance_store.terminate(
                np.array([victim._instance.row]), orch.clock.now()
            )
            with pytest.raises(InstanceGoneError):
                victim.run(lambda sandbox: None)
            gone_raised += 1
        last_handles = handles
        if launch_round != launches - 1:
            client.disconnect(name)
            if idle_deaths:
                # Mid-window: some idle instances reap, some survive, so
                # the next launch mixes reuse with fresh creation.
                client.wait((profile.idle_grace + profile.idle_deadline) / 2)
            else:
                client.wait(profile.idle_grace / 2)

    plan = orch.fault_plan
    return {
        "hosts": hosts_per_launch,
        "gone_raised": gone_raised,
        "sandbox_states": {
            h.instance_id: sandbox_rng_state(h)
            for h in last_handles
            if h.alive
        },
        "orch_rng": orch_rng_state(env),
        "service_counts": orch.instance_store.host_counts(
            orch.instance_store.index_of(qualified), orch.fleet.all_indices
        ).tolist(),
        "load": orch.fleet.load_slots.tolist(),
        "instances": list(orch.instances),
        "clock": orch.clock.now(),
        "fault_counters": (
            None if plan is None else dataclasses.asdict(plan.counters)
        ),
    }


def run_twin_launch_worlds(
    env_factory, seed, *, fault_plan_factory=None, background=None, **campaign_kwargs
):
    """Per-instance launch oracle world vs segmented batched launch world."""
    worlds = {}
    for label in ("scalar", "batched"):
        env = env_factory(
            seed=seed,
            fault_plan=None if fault_plan_factory is None else fault_plan_factory(),
            background=background,
        )
        if label == "scalar":
            bind_scalar_launch(env.orchestrator)
        worlds[label] = run_campaign(env, **campaign_kwargs)
    assert worlds["scalar"] == worlds["batched"]
    return worlds["scalar"]


def faulty(rate):
    return lambda seed: FaultPlan(FaultSpec(launch_error_rate=rate, seed=seed))


# 4 seeds x 5 shapes = 20 identity cases: a single clean wave, a reconnect
# campaign with mid-campaign idle deaths, a campaign with a killed
# instance (InstanceGoneError on both paths), a fault-injected campaign
# where launches fail and retry, and the same under live background
# traffic, whose evaluations and reaps fire during the retry backoff sleeps.
LAUNCH_SHAPES = [
    pytest.param(dict(n=12, launches=1), None, None, id="single-wave"),
    pytest.param(
        dict(n=10, launches=3, idle_deaths=True), None, None, id="idle-deaths"
    ),
    pytest.param(
        dict(n=8, launches=2, kill_mid=True), None, None, id="killed-instance"
    ),
    pytest.param(dict(n=10, launches=2), faulty(0.2), None, id="faulty-launches"),
    pytest.param(
        dict(n=10, launches=2, idle_deaths=True),
        faulty(0.3),
        lambda seed: TrafficConfig(n_tenants=40, seed=seed, duration_s=3600.0),
        id="background-faulty-launches",
    ),
]


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
@pytest.mark.parametrize("shape,plan,traffic", LAUNCH_SHAPES)
def test_launch_identity_matrix(tiny_env_factory, seed, shape, plan, traffic):
    run_twin_launch_worlds(
        tiny_env_factory,
        seed,
        fault_plan_factory=None if plan is None else (lambda: plan(seed)),
        background=None if traffic is None else traffic(seed),
        **shape,
    )


class SeedDrawRecorder:
    """Forwarding proxy that records the orchestrator's vector draws."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self.sizes: list[int] = []

    def integers(self, *args, **kwargs):
        if "size" in kwargs:
            self.sizes.append(kwargs["size"])
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def record_seed_draws(env) -> SeedDrawRecorder:
    recorder = SeedDrawRecorder(env.orchestrator._rng)
    env.orchestrator._rng = recorder
    return recorder


def test_clean_batch_draws_seeds_in_one_call(tiny_env_factory):
    env = tiny_env_factory(seed=21)
    recorder = record_seed_draws(env)
    client = env.clients["account-1"]
    name = client.deploy(ServiceConfig(name="svc"))
    assert len(client.connect(name, 15)) == 15
    assert recorder.sizes == [15]


def test_faulted_batch_draws_seeds_once_per_segment(tiny_env_factory):
    """A segment breaks exactly where an instance's first launch attempt
    fails: that instance heads the next segment."""
    plan = FaultPlan(FaultSpec(launch_error_rate=0.3, seed=22))
    env = tiny_env_factory(seed=22, fault_plan=plan)
    orch = env.orchestrator
    recorder = record_seed_draws(env)
    service = orch.deploy_service("account-1", ServiceConfig(name="svc"))
    created = [i.instance_id for i in orch.scale_to(service, 12)]
    heads = [0] + [
        k for k, iid in enumerate(created) if k and plan.launch_would_fail(iid, 0)
    ]
    expected = [b - a for a, b in zip(heads, heads[1:] + [len(created)])]
    assert len(expected) > 1, "seed must exercise a segmented batch"
    assert recorder.sizes == expected
    assert plan.counters.launch_errors >= len(expected) - 1


class DoomedLaunchPlan(FaultPlan):
    """Every attempt of the instance with sequence number ``doomed`` fails."""

    def __init__(self, doomed: int) -> None:
        super().__init__(FaultSpec())
        self._suffix = f"#{doomed:07d}"

    def launch_would_fail(self, instance_id: str, attempt: int) -> bool:
        return instance_id.endswith(self._suffix)


def test_mid_batch_launch_error_commits_oracle_prefix(tiny_env_factory):
    """A LaunchError in the middle of a batch leaves exactly the state of
    the per-instance loop's committed prefix."""
    worlds = {}
    for label in ("scalar", "batched"):
        plan = DoomedLaunchPlan(doomed=5)
        env = tiny_env_factory(seed=24, fault_plan=plan)
        orch = env.orchestrator
        if label == "scalar":
            bind_scalar_launch(orch)
        service = orch.deploy_service("account-1", ServiceConfig(name="svc"))
        qualified = service.qualified_name
        with pytest.raises(LaunchError):
            orch.scale_to(service, 10)
        state = orch.instance_store
        index = state.index_of(qualified)
        worlds[label] = {
            "orch_rng": orch_rng_state(env),
            "instances": list(orch.instances),
            "next_instance": orch._instance_counter.value,
            "service_counts": state.host_counts(index, orch.fleet.all_indices).tolist(),
            "load": orch.fleet.load_slots.tolist(),
            "state": (state.active_count(index), state.idle_count(index)),
            "sandbox_states": {
                iid: str(inst.sandbox._rng.bit_generator.state)
                for iid, inst in orch.instances.items()
            },
            "fault_counters": dataclasses.asdict(plan.counters),
            "clock": orch.clock.now(),
        }
    assert worlds["scalar"] == worlds["batched"]
    assert len(worlds["batched"]["instances"]) == 5
    assert worlds["batched"]["state"] == (5, 0)
    assert worlds["batched"]["fault_counters"]["launch_errors"] == 3


class TestRecruiterIdentity:
    """The recruiter's gathered id resolve vs the historical per-pick loop."""

    @staticmethod
    def build(n_hosts, helper_cap=64):
        store = FleetStore([f"h{i:05d}" for i in range(n_hosts)])
        service = Service(
            config=ServiceConfig(name="svc"),
            account_id="account-1",
            image_id="image-0",
        )
        return store, service

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "n_hosts,new_count,fraction",
        [(40, 8, 0.25), (200, 64, 0.5), (500, 11, 0.1), (64, 64, 1.0)],
    )
    def test_matches_scalar_reference(
        self, tiny_env_factory, seed, n_hosts, new_count, fraction
    ):
        profile = tiny_env_factory(seed=seed).datacenter.profile
        profile = type(profile)(
            **{
                **{f: getattr(profile, f) for f in profile.__dataclass_fields__},
                "name": "recruit-twin",
                "helper_recruit_fraction": fraction,
                "helper_pool_cap": n_hosts,
            }
        )
        candidates = np.arange(n_hosts, dtype=np.int64)
        np.random.default_rng(seed).shuffle(candidates)

        store, service = self.build(n_hosts)
        rng = np.random.default_rng(seed)
        picked = HelperHostRecruiter(profile, rng).recruit(
            service, new_count, candidates, store
        )

        # Scalar reference: the pre-PR-8 per-pick host_id loop.
        store_ref, service_ref = self.build(n_hosts)
        rng_ref = np.random.default_rng(seed)
        import math

        want = math.ceil(new_count * profile.helper_recruit_fraction)
        count = min(want, profile.helper_pool_cap, candidates.size)
        picked_pos = rng_ref.choice(candidates.size, size=count, replace=False)
        reference = [
            store_ref.host_id(int(candidates[pos])) for pos in picked_pos
        ]

        assert picked == reference
        assert service.helper_host_ids == reference
        assert str(rng.bit_generator.state) == str(rng_ref.bit_generator.state)


class TestCensusAggregationIdentity:
    """FootprintAccumulator vs the historical per-launch set reduction."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "launches,per_launch,universe",
        [(1, 50, 20), (8, 120, 40), (20, 30, 600), (5, 0, 10)],
    )
    def test_matches_set_reference(self, seed, launches, per_launch, universe):
        rng = np.random.default_rng(seed)
        stream = [
            [
                ("cpu-model", int(bucket))
                for bucket in rng.integers(universe, size=per_launch)
            ]
            for _ in range(launches)
        ]
        ref_per_launch, ref_cumulative = census_reduce_scalar(stream)

        acc = FootprintAccumulator()
        got = [acc.add_launch(launch) for launch in stream]
        assert [g[0] for g in got] == ref_per_launch
        assert [g[1] for g in got] == ref_cumulative
        assert acc.unique_count == (ref_cumulative[-1] if ref_cumulative else 0)

    def test_hashable_fingerprints_not_required_to_be_ints(self):
        acc = FootprintAccumulator()
        per, cum = acc.add_launch(["a", "b", "a", ("c", 1.5)])
        assert (per, cum) == (3, 3)
        per, cum = acc.add_launch(["b", "d"])
        assert (per, cum) == (2, 4)
        assert acc.add_launch([]) == (0, 4)

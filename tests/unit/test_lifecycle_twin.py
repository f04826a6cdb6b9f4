"""Twin-world identity of the batched instance lifecycle.

One world idles out, reaps and tears down instance by instance through
:mod:`tests.oracles.lifecycle`; the other runs the orchestrator's batched
lifecycle (one masked idle-out per disconnect, one reap batch per run of
due reaps).  Both run the same census-shaped churn: overlapping
disconnects of several services, a reconnect that reuses idle instances,
a scale-in, ``kill_service``, SIGTERM reporters on every instance (Fig. 6),
a hashed idle-deadline stream, and launch faults whose retry backoff
ticks the clock while reaps are due.  Every RNG stream, column, meter and
the termination order must come out identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.api import InstanceHandle
from repro.cloud.services import ServiceConfig
from repro.experiments.base import default_env
from repro.faults import FaultPlan, FaultSpec, RetryPolicy, hashed_uniform
from repro.telemetry import Telemetry, telemetry_context
from tests.conftest import tiny_profile
from tests.oracles.lifecycle import bind_scalar_lifecycle


class EveryNthFirstAttemptFails(FaultPlan):
    """The first launch attempt of every ``n``-th instance fails."""

    def __init__(self, n: int) -> None:
        super().__init__(FaultSpec())
        self._n = n

    def launch_would_fail(self, instance_id: str, attempt: int) -> bool:
        return attempt == 0 and int(instance_id.rsplit("#", 1)[1]) % self._n == 0


def churn(scalar: bool, seed: int, faulted: bool) -> dict:
    env = default_env(
        profile=tiny_profile(n_hosts=40, active_hosts=30),
        seed=seed,
        fault_plan=EveryNthFirstAttemptFails(7) if faulted else None,
        retry_policy=RetryPolicy(max_retries=2, backoff_seconds=15.0),
    )
    orch = env.orchestrator
    if scalar:
        bind_scalar_lifecycle(orch)
    terminations: list[tuple[float, str]] = []
    costs: list[float] = []

    def report(handles):
        for handle in handles:
            InstanceHandle(getattr(handle, "_instance", handle)).on_sigterm(
                lambda when, instance_id=handle.instance_id: terminations.append(
                    (when, instance_id)
                )
            )
        return handles

    attacker, victim = env.clients["account-1"], env.clients["account-2"]
    names = [
        attacker.deploy(ServiceConfig(name=f"svc-{i}", max_instances=200))
        for i in range(3)
    ]
    hashed = victim.deploy(ServiceConfig(name="tenant", max_instances=200))
    orch.set_idle_deadline_stream(
        victim._service(hashed),
        lambda instance_id: hashed_uniform(seed, "idle", instance_id),
    )
    report(attacker.connect(names[0], 40))
    report(victim.connect(hashed, 25))
    attacker.wait(30.0)
    report(attacker.connect(names[1], 30))
    attacker.disconnect(names[0])
    victim.disconnect(hashed)
    attacker.wait(150.0)
    costs.append(orch.account_cost_usd("account-1"))
    # Launches while reaps are due: retry backoff fires them mid-batch.
    report(attacker.connect(names[2], 35))
    attacker.disconnect(names[1])
    attacker.wait(90.0)
    # Reconnect reuses the survivors of the first disconnect.
    report(attacker.connect(names[0], 40))
    report(victim.connect(hashed, 10))
    attacker.wait(60.0)
    # Scale in: the newest extras idle out.
    report(attacker.connect(names[2], 12))
    victim.disconnect(hashed)
    costs.append(orch.account_cost_usd("account-1"))
    # Open-loop scaling from scheduler events (as background tenants do),
    # interleaved with the reaps coming due around them.
    tenant = attacker._service(names[2])
    for delay, target in ((35.0, 20), (70.0, 5), (105.0, 25), (140.0, 0)):
        orch.scheduler.call_after(
            delay,
            lambda target=target: report(
                orch.scale_to(tenant, target, sleep_startup=False)
            ),
        )
    attacker.wait(200.0)
    attacker.kill(names[1])
    attacker.disconnect(names[0])
    report(victim.connect(hashed, 20))
    costs.append(orch.account_cost_usd("account-2"))
    attacker.wait(env.datacenter.profile.idle_deadline + 30.0)
    victim.kill(hashed)

    fleet = orch.fleet
    store = orch.instance_store
    keys = [orch.services[key].qualified_name for key in orch.services]
    return {
        "now": orch.clock.now(),
        "rng": str(orch._rng.bit_generator.state),
        "load_slots": fleet.load_slots.tolist(),
        "service_counts": {
            key: store.host_counts(store.index_of(key), fleet.all_indices).tolist()
            for key in keys
        },
        "service_state": [
            (key, store.active_count(store.index_of(key)), store.idle_count(store.index_of(key)))
            for key in keys
        ],
        "meters": {
            account_id: (account.billing.vcpu_seconds, account.billing.gb_seconds)
            for account_id, account in orch.accounts.items()
        },
        "costs": costs,
        "terminations": terminations,
        "pending_reaps": orch.pending_reaps(),
        "alive": {key: orch.alive_count(orch.services[key]) for key in keys},
    }


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "backoff"])
@pytest.mark.parametrize("seed", [3, 8])
def test_batched_lifecycle_matches_per_instance_loop(seed, faulted):
    scalar_telemetry, batched_telemetry = Telemetry(), Telemetry()
    with telemetry_context(scalar_telemetry):
        scalar = churn(True, seed, faulted)
    with telemetry_context(batched_telemetry):
        batched = churn(False, seed, faulted)
    assert batched == scalar
    assert len(scalar["terminations"]) > 100
    assert scalar["pending_reaps"] == 0
    for name in ("orchestrator.terminations", "orchestrator.instances_created"):
        assert (
            batched_telemetry.metrics.counters[name]
            == scalar_telemetry.metrics.counters[name]
        )


def test_reap_batches_are_few():
    """Reaps of one disconnect fire in runs, not one event each."""
    telemetry = Telemetry()
    with telemetry_context(telemetry):
        churn(False, 3, False)
    counters = telemetry.metrics.counters
    assert counters["orchestrator.terminations"] > 100
    assert counters["simtime.events_fired"] < counters["orchestrator.terminations"] / 2


def test_terminations_are_in_deadline_order():
    result = churn(False, 8, True)
    times = [when for when, _instance_id in result["terminations"]]
    assert times == sorted(times)
    assert np.isfinite(times).all()


def test_hashed_idle_draws_are_kept_per_row_until_the_stream_changes():
    """A row's hashed idle draw depends on its id only, so a re-idled row
    is not drawn again; registering a stream drops every kept draw."""
    env = default_env(profile=tiny_profile(), seed=3)
    orch, client = env.orchestrator, env.attacker
    name = client.deploy(ServiceConfig(name="svc", max_instances=50))
    service = client._service(name)
    profile = env.datacenter.profile
    drawn: list[str] = []

    def stream(value: float):
        def draw(instance_id: str) -> float:
            drawn.append(instance_id)
            return value

        return draw

    def reaped_at(value: float) -> None:
        """All 10 rows idle out and are reaped at ``value`` of the window."""
        client.connect(name, 10)
        client.disconnect(name)
        deadline = profile.idle_grace + value * (profile.idle_deadline - profile.idle_grace)
        client.wait(deadline - 1.0)
        assert orch.alive_count(service) == 10
        client.wait(2.0)
        assert orch.alive_count(service) == 0

    orch.set_idle_deadline_stream(service, stream(0.25))
    client.connect(name, 10)
    client.disconnect(name)  # draws each row's value once
    reaped_at(0.25)  # the same rows re-idled: nothing drawn
    assert len(drawn) == len(set(drawn)) == 10

    client.connect(name, 10)
    client.disconnect(name)  # fresh rows, drawn once
    orch.set_idle_deadline_stream(service, stream(0.75))
    reaped_at(0.75)  # the same rows re-idled, drawn again through the new stream
    assert len(drawn) == 30 and len(set(drawn)) == 20

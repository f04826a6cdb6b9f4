"""Property: a row's lazy id is the id its launch hashed.

An instance id is never stored: a row keeps the instance counter's value
(``serial``) and the id is built from it when asked for.  Under a fault
plan with launch failures the counter has holes (ids hashed whose launch
failed), and retry backoff sleeps can fire clock hooks that launch other
instances before a delayed segment commits.  For arbitrary launch
sequences of that kind, every row's lazy id must be an id the launch
hashed, ``true_host_of`` must find every row's host, and ids of holes,
of unknown services and in a non-canonical spelling must raise
``KeyError``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cloud.services import ServiceConfig
from repro.errors import LaunchError
from repro.experiments.base import default_env
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.fleet.instances import instance_id
from tests.conftest import tiny_profile


class RecordingPlan(FaultPlan):
    """A fault plan that records every id whose launch it decided."""

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        self.hashed: set[str] = set()

    def launch_would_fail(self, instance_id: str, attempt: int) -> bool:
        self.hashed.add(instance_id)
        return super().launch_would_fail(instance_id, attempt)


step = st.tuples(
    st.integers(0, 2),  # service
    st.integers(1, 9),  # target
    st.booleans(),  # disconnect afterwards
    st.booleans(),  # a hook that launches another service mid-backoff
)


@settings(max_examples=40, deadline=None)
@given(
    rate=st.sampled_from([0.2, 0.5]),
    fault_seed=st.integers(0, 2**16),
    steps=st.lists(step, min_size=1, max_size=8),
)
def test_lazy_ids_are_the_hashed_ids(rate, fault_seed, steps):
    plan = RecordingPlan(FaultSpec(launch_error_rate=rate, seed=fault_seed))
    env = default_env(
        profile=tiny_profile(),
        seed=5,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=1, backoff_seconds=0.5),
    )
    orch = env.orchestrator
    services = [
        orch.deploy_service("account-1", ServiceConfig(name=f"svc-{i}")) for i in range(3)
    ]
    hook_service = orch.deploy_service("account-2", ServiceConfig(name="hook"))

    def hook() -> None:
        try:
            orch.scale_to(hook_service, orch.active_count(hook_service) + 2, sleep_startup=False)
        except LaunchError:
            pass

    for which, target, disconnect, with_hook in steps:
        if with_hook:
            orch.scheduler.call_at(orch.clock.now() + 0.25, hook)
        try:
            orch.scale_to(services[which], target)
        except LaunchError:
            pass
        if disconnect:
            orch.disconnect(services[which])

    store = orch.instance_store
    rows = np.arange(store.n_rows)
    ids = store.instance_ids(rows)
    assert [view.instance_id for view in store.column(rows)] == ids
    assert len(set(ids)) == len(ids)
    assert set(ids) <= plan.hashed
    for row, iid in zip(rows.tolist(), ids):
        assert store.row_of(iid) == row
        assert orch.true_host_of(iid) == orch.fleet.ids[store.host[row]]

    refused = plan.hashed - set(ids)  # holes: every attempt failed
    refused |= {"nobody/svc#0000000", "account-1/svc-0", "account-1/svc-0#x"}
    refused.add(instance_id("account-1/svc-0", orch._instance_counter.value + 3))
    if ids:
        key, _hash, suffix = ids[0].rpartition("#")
        refused.add(f"{key}#{int(suffix)}")  # unpadded, unless it needs 7 digits
        refused.add(f"account-2/hook#{suffix}")  # another service's serial
        refused.discard(ids[0])
    for iid in refused - set(ids):
        try:
            orch.true_host_of(iid)
        except KeyError:
            continue
        raise AssertionError(f"{iid!r} names no row but resolved")

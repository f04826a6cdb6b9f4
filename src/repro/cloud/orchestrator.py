"""The FaaS orchestrator: scaling, placement, idle reaping, billing.

This is the control plane the paper reverse engineers.  It implements the
behaviors of Observations 1-6 (§5.1):

1. instances of a service spread near-uniformly across the hosts used;
2. idle instances are preserved ~2 minutes, then gradually terminated, all
   gone ~12 minutes after disconnecting;
3. launches from the same account land on a preferred set of *base hosts*;
4. different accounts get different base hosts (placement shards);
5. a service with repeated high demand inside a 30-minute window spills
   onto extra *helper hosts* (load balancing), proportionally to how many
   instances had to be newly created;
6. helper sets are per-service, overlapping across services.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.cloud.accounts import Account
from repro.cloud.datacenter import DataCenter
from repro.cloud.loadbalancer import DemandTracker, HelperHostRecruiter
from repro.cloud.placement import PlacementPolicy, PlacementRequest
from repro.cloud.platform import PlatformProfile
from repro.cloud.services import Service, ServiceConfig
from repro.errors import CloudError, LaunchError
from repro.faults import DEFAULT_LAUNCH_RETRY, FaultPlan, RetryPolicy
from repro.fleet import ContainerInstance, InstanceStore
from repro.fleet.instances import InstanceColumn, instance_id
from repro.sandbox.base import TscPolicy
from repro.sandbox.gvisor import GVisorSandbox
from repro.sandbox.microvm import MicroVMSandbox
from repro.simtime.scheduler import EventBatch, EventScheduler, SequenceCounter
from repro.telemetry import current_telemetry


class Orchestrator:
    """Fully managed container orchestration for one datacenter region.

    Parameters
    ----------
    datacenter:
        The physical substrate.
    tsc_policy:
        Fleet-wide TSC exposure policy; set to ``TscPolicy.EMULATED`` to
        enable the paper's §6 mitigation on every host.
    fault_plan:
        Optional deterministic fault schedule; injects launch errors and
        slow launches at instance-creation time.
    retry_policy:
        Bounded retry-with-backoff for failed launch attempts (backoff is
        slept in simulated time).  Defaults to two retries.
    platform:
        Optional :class:`~repro.cloud.platform.PlatformProfile` shaping
        the orchestrator personality (idle window, sandbox generation,
        placement spread).  Defaults to the datacenter's profile, so
        building the datacenter with one is enough.
    """

    def __init__(
        self,
        datacenter: DataCenter,
        tsc_policy: TscPolicy = TscPolicy.NATIVE,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        platform: PlatformProfile | None = None,
    ) -> None:
        self.datacenter = datacenter
        self.clock = datacenter.clock
        self.tsc_policy = tsc_policy
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_LAUNCH_RETRY
        self.platform = platform if platform is not None else datacenter.platform
        self.scheduler = EventScheduler(self.clock)
        self.accounts: dict[str, Account] = {}
        self.services: dict[str, Service] = {}
        self.fleet = datacenter.fleet
        self._rng = np.random.default_rng(datacenter.rng.integers(2**63))
        self._placement = PlacementPolicy(self._rng, platform=self.platform)
        self._demand = DemandTracker(datacenter.profile)
        self._recruiter = HelperHostRecruiter(datacenter.profile, self._rng)
        self._instances = InstanceStore(self.clock, datacenter.hosts, tsc_policy)
        # Per service index: (vcpus, memory_gb, slots) and the owning account.
        self._service_sizes = np.empty((0, 3), dtype=np.float64)
        self._service_owner: list[str] = []
        # Pending idle reaps (deadline, sequence, row), fired by _IdleReap.
        self._reaps = EventBatch(self.scheduler)
        self._stale_reaps = 0
        self._idle_streams: dict[str, Callable[[str], float]] = {}
        # Per row: its hashed idle draw, NaN until drawn.
        self._idle_draws = np.empty(0, dtype=np.float64)
        # qualified name -> (helper count, allowed host-index array).  Base
        # shards are pinned per account and helper sets are append-only, so
        # the id->index resolution is reusable until a recruit grows the
        # helper list.  Never used under randomized_base, where base hosts
        # are a fresh RNG sample on every placement decision.
        self._allowed_idx: dict[str, tuple[int, np.ndarray]] = {}
        # account id -> base-shard host-index array.  Base shards are
        # pinned per account, so the id->index resolution never changes.
        # Bypassed under randomized_base (fresh sample per decision).
        self._base_idx: dict[str, np.ndarray] = {}
        self._route_counters: dict[str, int] = {}
        self._probe_counters: dict[str, int] = {}
        self._instance_counter = SequenceCounter()
        self._image_counter = SequenceCounter()

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def register_account(self, account: Account) -> None:
        """Register an account; idempotent for the same object."""
        existing = self.accounts.get(account.account_id)
        if existing is not None and existing is not account:
            raise CloudError(f"account {account.account_id!r} already registered")
        self.accounts[account.account_id] = account

    def deploy_service(self, account_id: str, config: ServiceConfig) -> Service:
        """Deploy (or redeploy) a service; builds a fresh container image."""
        account = self._account(account_id)
        service = Service(
            config=config,
            account_id=account.account_id,
            image_id=f"image-{next(self._image_counter):06d}",
        )
        key = service.qualified_name
        if key in self.services:
            raise CloudError(f"service {key!r} already deployed")
        self.services[key] = service
        self._service_index(service)
        return service

    def rebuild_image(self, service: Service) -> None:
        """Rebuild the service's container image (invalidates host caches)."""
        service.image_id = f"image-{next(self._image_counter):06d}"

    # ------------------------------------------------------------------
    # Scaling (autoscaler entry points)
    # ------------------------------------------------------------------
    def connect(self, service: Service, n_connections: int) -> InstanceColumn:
        """Ensure capacity for ``n_connections`` concurrent connections.

        Models the paper's workload generator: each instance serves up to
        ``service.config.concurrency`` concurrent requests, so the target
        instance count is ``ceil(n_connections / concurrency)``.  The paper
        pins concurrency to 1 (§5) so that opening N WebSocket connections
        forces exactly N concurrent instances; services configured with a
        higher concurrency pack connections instead.  Existing idle
        instances are reused first; the remainder are newly created, which
        is what drives helper-host recruitment when the service is hot.
        """
        per_instance = service.config.concurrency
        return self.scale_to(service, math.ceil(n_connections / per_instance))

    def scale_to(
        self, service: Service, target: int, *, sleep_startup: bool = True
    ) -> InstanceColumn:
        """Autoscale the service to ``target`` concurrently active instances.

        Scaling *out* reuses idle instances and creates the remainder
        (recruiting helper hosts when the service is hot); scaling *in*
        idles the most recently created extras, which the reaper later
        terminates (§2.2 autoscaling).  ``sleep_startup=False`` skips the
        cold-start sleep: open-loop background drivers fire from scheduler
        events *inside* a ``clock.sleep`` and must not advance the shared
        clock re-entrantly.
        """
        return self._scale(service, target, want_list=True, sleep_startup=sleep_startup)

    def scale_to_count(
        self, service: Service, target: int, *, sleep_startup: bool = True
    ) -> int:
        """Autoscale like :meth:`scale_to`, returning only the active count.

        The hot path for :class:`~repro.cloud.traffic.BackgroundDriver`: a
        steady-state evaluation reads the columnar
        :class:`~repro.fleet.InstanceStore` per-service counts instead of
        rebuilding per-instance Python lists, so thousands of tenant
        evaluations per tick stay cheap.
        """
        return self._scale(service, target, want_list=False, sleep_startup=sleep_startup)

    def _scale(
        self,
        service: Service,
        target: int,
        *,
        want_list: bool,
        sleep_startup: bool,
    ):
        account = self._account(service.account_id)
        if target > service.config.max_instances:
            raise CloudError(
                f"service {service.qualified_name!r} allows at most "
                f"{service.config.max_instances} instances (requested {target})"
            )
        account.check_instance_quota(target)
        telemetry = current_telemetry()

        now = self.clock.now()
        self.datacenter.serving_pool()  # triggers serving-pool rotation
        store = self._instances
        index = self._service_index(service)
        active_n = store.active_count(index)

        if target < active_n:
            # Scale in: idle out the most recently created extras.  A
            # service's rows are append-only, so its ACTIVE rows are in
            # creation order (pinned by a property test).
            with telemetry.span(
                "orchestrator.scale_in",
                service=service.qualified_name,
                target=target,
            ) as span:
                active = self._active_rows(index)
                self._idle_out(index, active[target:], now)
                span.set(idled=active_n - target)
                telemetry.count("orchestrator.scale_ins")
                self._demand.record_demand(service, now, target)
            return store.column(active[:target]) if want_list else target

        with telemetry.span(
            "orchestrator.launch",
            service=service.qualified_name,
            target=target,
        ) as span:
            need = target - active_n
            idle_n = store.idle_count(index)
            new_needed = max(0, need - idle_n)
            if need > 0 and idle_n > 0:
                # Scale out: reuse just enough idle instances, create the rest.
                reused = store.idle_rows(index)[:need]
                store.activate(index, reused, now)
                self._cancel_reaps(reused)

            # Hotness is judged on *past* demand, before this launch.
            hot = self._demand.is_hot(service, now)
            self._demand.record_demand(service, now, target)
            span.set(created=new_needed, hot=hot)
            telemetry.count("orchestrator.launch_batches")
            telemetry.count("orchestrator.instances_created", new_needed)
            if need > 0:
                telemetry.count("orchestrator.scale_outs")

            base_hosts = self._base_hosts(account)
            if hot and new_needed > 0 and self.datacenter.profile.defense != "tenant_isolation":
                # Under tenant isolation the load balancer may not spill a
                # tenant onto shared hosts, so no helper recruitment happens.
                # Candidate selection is index-mask math in pool order: the
                # serving pool minus the hosts the service already uses.
                pool_idx = self.fleet.pool_order
                known_idx = self._known_indices(service, base_hosts)
                prior_helpers = len(service.helper_host_ids)
                candidates = pool_idx[~np.isin(pool_idx, known_idx)]
                new_helpers = self._recruiter.recruit(
                    service, new_needed, candidates, self.fleet
                )
                # Keep the placement cache fresh across the recruit: new
                # helpers are drawn from candidates, which exclude every
                # cached host, so appending their indices preserves the
                # base-then-helpers allowed order.
                cached = self._allowed_idx.get(service.qualified_name)
                if new_helpers and cached is not None and cached[0] == prior_helpers:
                    self._allowed_idx[service.qualified_name] = (
                        len(service.helper_host_ids),
                        np.concatenate(
                            [cached[1], self.fleet.indices_of(new_helpers)]
                        ),
                    )

            if new_needed > 0:
                created = self._create_instances(service, account, new_needed)
                if sleep_startup:
                    startup = self._startup_seconds(service, new_needed, target)
                    if self.fault_plan is not None:
                        startup += sum(
                            self.fault_plan.slow_launch_penalty(instance_id)
                            for instance_id in store.instance_ids(created)
                        )
                    self.clock.sleep(startup)

            if not want_list:
                return store.active_count(index)
            active = self._active_rows(index)
        return store.column(active[:target])

    def disconnect(self, service: Service) -> None:
        """Close all connections: instances idle out and are later reaped.

        Each idle instance is terminated at an independent uniform time
        between ``idle_grace`` and ``idle_deadline`` after disconnecting,
        reproducing the gradual decay of Fig. 6.
        """
        index = self._service_index(service)
        self._idle_out(index, self._active_rows(index), self.clock.now())

    def _idle_out(self, index: int, rows: np.ndarray, now: float) -> None:
        """Idle ACTIVE ``rows`` of one service and schedule their reaps.

        One masked update and one vector deadline draw: ``uniform(size=k)``
        consumes the shared stream exactly as ``k`` scalar draws in row
        order would, and the reaps take one block of ``k`` sequence
        numbers, so each keeps the ``(when, sequence)`` key a per-instance
        ``call_at`` would have given it.
        """
        if not rows.size:
            return
        store = self._instances
        store.idle(index, rows, now)
        self._settle_billing(rows, index)
        profile = self.datacenter.profile
        idle_grace, idle_deadline = profile.idle_grace, profile.idle_deadline
        if self.platform is not None:
            idle_grace, idle_deadline = self.platform.idle_window(
                idle_grace, idle_deadline
            )
        stream = self._idle_streams.get(store.key_of(index))
        if stream is None:
            deadlines = (
                now + self._rng.uniform(idle_grace, idle_deadline, size=rows.size)
            ).tolist()
        else:
            # Hashed per-instance draw: order-independent, and consumes
            # nothing from the shared RNG, so interleaved background
            # tenants cannot perturb foreground draw sequences.
            span_s = idle_deadline - idle_grace
            draws = self._hashed_idle_draws(rows, stream)
            deadlines = (now + idle_grace + draws * span_s).tolist()
        self._schedule_reaps(rows, deadlines)

    def _hashed_idle_draws(
        self, rows: np.ndarray, stream: Callable[[str], float]
    ) -> np.ndarray:
        """``stream(instance_id)`` of each row.  A draw depends on the id
        only, so each row's is hashed once and kept: a re-idled row
        formats and hashes nothing."""
        kept = self._idle_draws
        if kept.size < self._instances.n_rows:
            kept = self._idle_draws = np.r_[kept, np.full(self._instances.n_rows, np.nan)]
        draws = kept[rows]
        fresh = np.isnan(draws)
        if fresh.any():
            new = rows[fresh]
            draws[fresh] = kept[new] = [
                stream(instance_id) for instance_id in self._instances.instance_ids(new)
            ]
        return draws

    def set_idle_deadline_stream(
        self, service: Service, stream: Callable[[str], float] | None
    ) -> None:
        """Route a service's idle-reap deadline draws through ``stream``.

        ``stream(instance_id)`` must return a uniform ``[0, 1)`` value that
        depends only on the instance id (FaultPlan-style hashing, see
        :func:`repro.faults.hashed_uniform`) — *not* on draw order.
        Background-traffic tenants register one so their idle reaps never
        consume the orchestrator's shared RNG; services without a stream
        keep the historical shared-RNG draws byte-for-byte.  Pass ``None``
        to restore the default.
        """
        key = service.qualified_name
        if stream is None:
            self._idle_streams.pop(key, None)
        else:
            self._idle_streams[key] = stream
        self._idle_draws = np.empty(0, dtype=np.float64)  # every kept draw is redrawn

    def note_demand(self, service: Service, concurrency: int) -> None:
        """Record a demand observation without scaling.

        Lets the background driver keep a steady tenant's demand history
        (hotness window) alive between target changes without paying for
        a full no-op scale evaluation.
        """
        self._demand.record_demand(service, self.clock.now(), concurrency)

    def kill_service(self, service: Service) -> None:
        """Immediately terminate every instance of a service."""
        index = self._service_index(service)
        self._terminate(self._instances.alive_rows(index), self.clock.now())

    def probe_service(
        self, qualified_name: str, processing_seconds: float = 0.05
    ) -> float:
        """Time one request to a service's public URL; returns the latency.

        The prober needs no ownership of the service — anyone who knows
        the qualified name (the public URL) can send a request and time the
        response, which is the whole attacker-side surface of the Target
        Victim Locator.  The request is routed round-robin among the
        active instances (a service with none scales out by one first);
        the serving sandbox's response time stretches under co-resident
        memory-bus locking
        (:meth:`~repro.sandbox.base.Sandbox.serve_request`).  Under an
        active fault plan, individual responses may additionally carry an
        injected platform-noise delay; the fault token carries a
        per-service probe sequence number, so a re-probe is a fresh draw.
        """
        try:
            service = self.services[qualified_name]
        except KeyError:
            raise CloudError(f"no service at {qualified_name!r}") from None
        latency = self._next_active(service).sandbox.serve_request(
            processing_seconds
        )
        seq = self._probe_counters.get(qualified_name, 0)
        self._probe_counters[qualified_name] = seq + 1
        if self.fault_plan is not None:
            latency += self.fault_plan.probe_delay_seconds(
                f"{qualified_name}#p{seq}"
            )
        self.clock.sleep(latency)
        current_telemetry().count("orchestrator.probes")
        return latency

    # ------------------------------------------------------------------
    # Introspection (ground truth for the simulator and metrics; guests
    # and the attacker-facing client API never see host ids)
    # ------------------------------------------------------------------
    def alive_instances(self, service: Service) -> InstanceColumn:
        """All non-terminated instances of a service, in creation order."""
        store = self._instances
        index = self._service_index(service)
        return store.column(store.alive_rows(index))

    def active_count(self, service: Service) -> int:
        """ACTIVE instance count from the columnar state (no list build)."""
        return self._instances.active_count(self._service_index(service))

    def idle_count(self, service: Service) -> int:
        """IDLE instance count from the columnar state (no list build)."""
        return self._instances.idle_count(self._service_index(service))

    def alive_count(self, service: Service) -> int:
        """Non-terminated instance count from the columnar state."""
        return self._instances.alive_count(self._service_index(service))

    def pending_reaps(self) -> int:
        """Idle reaps still waiting to fire: one per idle instance."""
        return len(self._reaps) - self._stale_reaps

    @property
    def instance_store(self) -> InstanceStore:
        """The columnar instance table (read-only for callers)."""
        return self._instances

    def true_host_of(self, instance_id: str) -> str:
        """Ground-truth host of an instance (validation only).

        Raises
        ------
        KeyError
            If no instance was launched under this id.
        """
        store = self._instances
        return self.datacenter.hosts[store.host[store.row_of(instance_id)]].host_id

    def host_load_slots(self, host_id: str) -> float:
        """Current committed capacity slots on a host."""
        return float(self.fleet.load_slots[self.fleet.index_of(host_id)])

    def account_cost_usd(self, account_id: str) -> float:
        """Account bill including accrued-but-unsettled active time.

        The unsettled costs of the account's ACTIVE rows are added in row
        (creation) order, one at a time, as a per-instance loop would.
        """
        account = self._account(account_id)
        store = self._instances
        owned = [
            self._active_rows(self._service_index(service))
            for service in self.services.values()
            if service.account_id == account_id
        ]
        rows = np.sort(np.concatenate([np.empty(0, np.int64), *owned]))
        vcpus, memory_gb, _slots = self._sizes(store.service[rows])
        unsettled = (
            store.active_total[rows]
            + (self.clock.now() - store.active_since[rows])
            - store.billed[rows]
        )
        costs = account.billing.rates.active_cost(
            vcpus, memory_gb, np.where(unsettled > 0.0, unsettled, 0.0)
        )
        pending = 0.0
        for cost in costs.tolist():
            pending += cost
        return account.billing.total_usd + pending

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _account(self, account_id: str) -> Account:
        try:
            return self.accounts[account_id]
        except KeyError:
            raise CloudError(f"account {account_id!r} is not registered") from None

    def _service_index(self, service: Service) -> int:
        """The service's dense index in the instance store, registering it
        (and its size and owner) on first use."""
        index = self._instances.service_index(service.qualified_name, service)
        if index == len(self._service_owner):
            size = service.config.size
            self._service_sizes = np.vstack(
                [self._service_sizes, (size.vcpus, size.memory_gb, size.slots)]
            )
            self._service_owner.append(service.account_id)
        return index

    def _active_rows(self, index: int) -> np.ndarray:
        """A service's ACTIVE rows in creation order: the routing targets,
        the scale-in candidates and what a disconnect idles out."""
        return self._instances.active_rows(index)

    def _next_active(self, service: Service) -> ContainerInstance:
        """The round-robin pick among the service's ACTIVE instances,
        scaling from zero to one first if it has none."""
        index = self._service_index(service)
        active = self._active_rows(index)
        if not active.size:
            self.scale_to(service, 1)
            active = self._active_rows(index)[:1]
        key = service.qualified_name
        counter = self._route_counters.get(key, 0)
        self._route_counters[key] = counter + 1
        return self._instances.instance(int(active[counter % active.size]))

    def _sizes(
        self, services: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-entry ``(vcpus, memory_gb, slots)`` of service indices."""
        vcpus, memory_gb, slots = self._service_sizes.take(services, axis=0).T
        return vcpus, memory_gb, slots

    def _base_hosts(self, account: Account) -> tuple[str, ...]:
        profile = self.datacenter.profile
        if profile.defense == "randomized_base":
            # §6 defense: no stable per-account hosts — a fresh sample from
            # the serving pool on every placement decision.
            pool = self.datacenter.serving_pool()
            size = min(profile.shard_size, len(pool))
            picked = self._rng.choice(len(pool), size=size, replace=False)
            return tuple(pool[i] for i in picked)
        region = profile.name
        hosts = account.base_host_ids.get(region)
        if hosts is None:
            shard = self.datacenter.shard_for_account(account.account_id)
            hosts = self.datacenter.shard_hosts(shard)
            account.base_host_ids[region] = hosts
        return hosts

    def _known_indices(
        self, service: Service, base_hosts: tuple[str, ...]
    ) -> np.ndarray:
        """Index set of the hosts the service already prefers (base plus
        helpers), reusing the placement cache when it is fresh.  The cached
        array deduplicates helpers against base hosts, which is irrelevant
        to set-membership callers."""
        if self.datacenter.profile.defense != "randomized_base":
            cached = self._allowed_idx.get(service.qualified_name)
            if cached is not None and cached[0] == len(service.helper_host_ids):
                return cached[1]
            base_idx = self._base_indices(service.account_id, base_hosts)
        else:
            base_idx = self.fleet.indices_of(base_hosts)
        return np.concatenate(
            [base_idx, self.fleet.indices_of(service.helper_host_ids)]
        )

    def _base_indices(
        self, account_id: str, base_hosts: tuple[str, ...]
    ) -> np.ndarray:
        """Cached fleet indices of an account's pinned base shard.

        Only valid outside randomized_base, where base hosts are a fresh
        sample on every placement decision — callers branch before here.
        """
        cached = self._base_idx.get(account_id)
        if cached is None:
            cached = self.fleet.indices_of(base_hosts)
            self._base_idx[account_id] = cached
        return cached

    def _create_instances(
        self,
        service: Service,
        account: Account,
        count: int,
    ) -> np.ndarray:
        """Place and commit one launch batch as a run of segments; returns
        the rows launched.

        A segment's head takes the next instance id and survives its
        launch faults (:meth:`_attempt_launch` may sleep retry backoff,
        firing clock hooks that launch or reap, or raise
        :class:`LaunchError` with every earlier segment committed).  The
        segment then absorbs each following id whose first attempt
        succeeds — fault decisions are pure hashes of the id, so the
        look-ahead has no side effects — and commits them with one vector
        seed draw and one ``on_created``.  A vector draw of size k consumes
        the same stream as k scalar ``integers(2**63)`` draws, so the commit
        is byte-identical to launching instance by instance (pinned by the
        twin-world launch tests).  Without a fault plan the whole batch is
        one segment.

        No sandbox is built here: each row records its stream seed and
        its sandbox's boot time, the clock at the segment commit (retry
        backoff may have moved it since ``created_at``).  Nor is an id: a row keeps its counter value
        (``serial``), and the id is built from it when asked for.
        """
        chosen = self._place_batch(service, account, count)
        qualified = service.qualified_name
        now = self.clock.now()
        store = self._instances
        index = self._service_index(service)
        cls = GVisorSandbox if self._generation(service) == "gen1" else MicroVMSandbox
        plan = self.fault_plan
        counter = self._instance_counter
        if plan is None:  # no launch can fail: one segment, its serials one block
            first = counter.value
            counter.value += chosen.size
            seeds = self._rng.integers(2**63, size=chosen.size)
            return store.launch(index, chosen, np.arange(first, counter.value), seeds, now, now, cls)
        created: list[np.ndarray] = []
        pending: int | None = None
        start = 0
        while start < chosen.size:
            head = next(counter) if pending is None else pending
            self._attempt_launch(instance_id(qualified, head))
            serials = [head]
            pending = None
            while start + len(serials) < chosen.size:
                serial = next(counter)
                if plan.launch_would_fail(instance_id(qualified, serial), 0):
                    pending = serial
                    break
                serials.append(serial)
            stop = start + len(serials)
            segment = chosen[start:stop]
            seeds = self._rng.integers(2**63, size=segment.size)
            created.append(
                store.launch(index, segment, serials, seeds, now, self.clock.now(), cls)
            )
            start = stop
        return np.concatenate([np.empty(0, dtype=np.int64), *created])

    def _place_batch(
        self,
        service: Service,
        account: Account,
        count: int,
    ) -> np.ndarray:
        """Host indices for ``count`` new instances of ``service``."""
        fleet = self.fleet
        qualified = service.qualified_name
        cacheable = self.datacenter.profile.defense != "randomized_base"
        cached = self._allowed_idx.get(qualified) if cacheable else None
        if cached is not None and cached[0] == len(service.helper_host_ids):
            allowed = cached[1]
        else:
            if cacheable:
                base_idx = self._base_indices(
                    account.account_id, self._base_hosts(account)
                )
            else:
                base_idx = fleet.indices_of(self._base_hosts(account))
            helper_idx = fleet.indices_of(service.helper_host_ids)
            if helper_idx.size:
                allowed = np.concatenate(
                    [base_idx, helper_idx[~np.isin(helper_idx, base_idx)]]
                )
            else:
                allowed = base_idx
            if cacheable:
                self._allowed_idx[qualified] = (
                    len(service.helper_host_ids),
                    allowed,
                )
        isolated = self.datacenter.profile.defense == "tenant_isolation"
        request = PlacementRequest(
            count=count,
            slots_per_instance=service.config.size.slots,
            allowed=allowed,
            allowed_counts=self._instances.host_counts(
                self._service_index(service), allowed
            ),
            scatter_probability=(
                0.0 if isolated
                else self.datacenter.dynamism_for_account(account.account_id)
            ),
            scatter_candidates=fleet.all_indices,
        )
        return self._placement.place(request, fleet)

    def _attempt_launch(self, instance_id: str) -> None:
        """Survive injected launch failures with bounded retry-with-backoff.

        Each failed attempt sleeps the policy's backoff in simulated time
        before retrying; the fault plan keys its decision on the attempt
        number, so a retry is a genuinely new draw.  Raises
        :class:`LaunchError` once the retry budget is exhausted.
        """
        if self.fault_plan is None:
            return
        attempt = 0
        while self.fault_plan.launch_fails(instance_id, attempt):
            if attempt >= self.retry_policy.max_retries:
                raise LaunchError(
                    f"instance {instance_id!r} failed to launch after "
                    f"{attempt + 1} attempts"
                )
            self.clock.sleep(self.retry_policy.backoff(attempt))
            self.fault_plan.counters.launch_retries += 1
            current_telemetry().count("faults.launch_retries")
            attempt += 1

    def _generation(self, service: Service) -> str:
        """A service's effective sandbox generation under the platform."""
        generation = service.config.generation
        if self.platform is not None:
            generation = self.platform.generation_for(generation)
        return generation

    #: Gen 2 microVMs have a larger resource footprint and boot slower
    #: than Gen 1 containers (paper §2.3).
    GEN2_STARTUP_FACTOR = 3.0

    def _startup_seconds(self, service: Service, new_count: int, target: int) -> float:
        """Batch cold-start latency; creation slows near the 1000 cap."""
        profile = self.datacenter.profile
        slowdown = 1.0 + 2.0 * max(0, target - 700) / 300.0
        seconds = (
            profile.baseline_startup
            + profile.per_instance_startup * new_count * slowdown
        )
        if self._generation(service) == "gen2":
            seconds *= self.GEN2_STARTUP_FACTOR
        return seconds

    def _terminate(self, rows: np.ndarray, now: float) -> None:
        """Terminate the alive ones of ``rows``, in order.

        Batched equal of the per-instance teardown: cancel any pending
        reap, SIGTERM, settle billing, then release hardware pressure and
        load slots.
        """
        store = self._instances
        rows, hot = store.terminate(np.asarray(rows, dtype=np.int64), now)
        if not rows.size:
            return
        current_telemetry().count("orchestrator.terminations", rows.size)
        self._cancel_reaps(rows)
        self._settle_billing(rows)
        # A destroyed container's guest loops stop executing, so any
        # hardware pressure it still held (an attacker killed mid-lock)
        # is released with it — otherwise a dead locker would pin its
        # host's contention level forever.  Outside a CTest batch, which
        # stops every pressure it started, pressure starts only inside a
        # sandbox, which makes its row hot, so cold rows hold none.
        for instance in hot:
            self.datacenter.host(instance.host_id).release_pressure(
                instance.instance_id
            )
        slots = self._service_sizes[store.service[rows], 2]
        self.fleet.release_load_at(store.host[rows], slots)

    def _settle_billing(self, rows: np.ndarray, index: int | None = None) -> None:
        """Charge each row's unbilled active seconds to its account, in
        row order per account.  ``index`` names the service when every
        row belongs to it."""
        store = self._instances
        owed = store.active_total[rows] - store.billed[rows]
        due = owed > 0
        n_due = np.count_nonzero(due)
        if not n_due:
            return
        if n_due < due.size:
            rows, owed = rows[due], owed[due]
        store.billed[rows] += owed
        if index is not None:
            vcpus, memory_gb, _slots = self._service_sizes[index].tolist()
            self._account(self._service_owner[index]).billing.charge_active_many(
                vcpus, memory_gb, owed
            )
            return
        services = store.service[rows]
        vcpus, memory_gb, _slots = self._sizes(services)
        owners = [self._service_owner[i] for i in services.tolist()]
        for account_id in dict.fromkeys(owners):
            mine = np.array([owner == account_id for owner in owners])
            self._account(account_id).billing.charge_active_many(
                vcpus[mine], memory_gb[mine], owed[mine]
            )

    #: Stale reaps tolerated before a bulk drop is considered.
    _COMPACT_MIN_STALE_REAPS = 64

    def _schedule_reaps(self, rows: np.ndarray, deadlines: list[float]) -> None:
        """Queue one idle reap per row, under one block of sequence numbers.

        An idle row's reap is an entry ``(deadline, sequence, row)``, and
        its ``reap_seq`` column holds the sequence while the reap is live.
        """
        first = self._reaps.push(deadlines, rows.tolist(), _IdleReap(self))
        self._instances.reap_seq[rows] = np.arange(first, first + rows.size)

    def _cancel_reaps(self, rows: np.ndarray) -> None:
        """Make the pending reaps of ``rows`` (if any) stale.

        Stale entries are skipped when they come due, and dropped in bulk
        once they are the majority, so churn cannot grow the queue.
        """
        reap_seq = self._instances.reap_seq
        live = int(np.count_nonzero(reap_seq[rows] >= 0))
        if not live:
            return
        reap_seq[rows] = -1
        self._stale_reaps += live
        if (
            self._stale_reaps >= self._COMPACT_MIN_STALE_REAPS
            and 2 * self._stale_reaps > len(self._reaps)
        ):
            self._reaps.retain(lambda entry: reap_seq[entry[2]] == entry[1])
            self._stale_reaps = 0


class _IdleReap:
    """The scheduler action that fires an orchestrator's due idle reaps.

    One call terminates, as one batch in ``(when, sequence)`` order, every
    live reap due before the scheduler's next other event — exactly the
    reaps that per-instance events would have fired next.  A plain
    callable object rather than a closure so the scheduler queue stays
    picklable: world snapshots (:mod:`repro.runner.worldcache`) serialize
    pending events.
    """

    __slots__ = ("orchestrator",)

    def __init__(self, orchestrator: Orchestrator) -> None:
        self.orchestrator = orchestrator

    def __call__(self) -> None:
        orch = self.orchestrator
        due = orch._reaps.take_due(self)
        reap_seq = orch._instances.reap_seq
        live = [row for _when, sequence, row in due if reap_seq[row] == sequence]
        orch._stale_reaps -= len(due) - len(live)
        if live:
            rows = np.array(live, dtype=np.int64)
            reap_seq[rows] = -1
            orch._terminate(rows, orch.clock.now())

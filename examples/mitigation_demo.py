#!/usr/bin/env python3
"""Demonstrating the §6 mitigation: TSC emulation/virtualization.

When the platform traps ``rdtsc`` and masks both the counter value and the
host's true frequency, the Gen 1 boot-time fingerprint collapses to "when
did my own sandbox start" and the Gen 2 refined-frequency fingerprint
collapses to the nominal model frequency — neither identifies hosts.

The mitigation's cost is timer-access latency: every ``rdtsc`` becomes a
trap, which this demo quantifies via the sandbox's syscall counter.

Run:  python examples/mitigation_demo.py
"""

from repro.cloud.services import ServiceConfig
from repro.core.fingerprint import (
    fingerprint_gen1_instances,
    fingerprint_gen2_instances,
)
from repro.experiments.base import default_env
from repro.sandbox.base import TscPolicy


def fingerprint_diversity(tsc_policy: TscPolicy) -> tuple[int, int, int]:
    env = default_env("us-east1", seed=51, tsc_policy=tsc_policy)
    client = env.attacker
    gen1 = client.deploy(ServiceConfig(name="m1", max_instances=400))
    handles1 = client.connect(gen1, 300)
    fps1 = {fp for _h, fp in fingerprint_gen1_instances(handles1, p_boot=1.0)}
    gen2 = client.deploy(ServiceConfig(name="m2", generation="gen2", max_instances=400))
    handles2 = client.connect(gen2, 300)
    fps2 = {fp for _h, fp in fingerprint_gen2_instances(handles2)}
    true_hosts = {
        env.orchestrator.true_host_of(h.instance_id) for h in handles1 + handles2
    }
    return len(fps1), len(fps2), len(true_hosts)


def timer_overhead(tsc_policy: TscPolicy) -> int:
    env = default_env("us-east1", seed=52, tsc_policy=tsc_policy)
    client = env.attacker
    service = client.deploy(ServiceConfig(name="t", max_instances=100))
    handle = client.connect(service, 1)[0]

    def hammer(sandbox):
        before = sandbox.call_count
        for _ in range(1000):
            sandbox.rdtsc()
        return sandbox.call_count - before

    return handle.run(hammer)


def main() -> None:
    for policy in (TscPolicy.NATIVE, TscPolicy.EMULATED):
        gen1, gen2, hosts = fingerprint_diversity(policy)
        traps = timer_overhead(policy)
        print(f"--- TSC policy: {policy.value} ---")
        print(f"  true hosts touched:        {hosts}")
        print(f"  distinct Gen 1 fingerprints: {gen1}")
        print(f"  distinct Gen 2 fingerprints: {gen2}")
        print(f"  kernel traps per 1000 rdtsc: {traps}")
        print()
    print(
        "Under emulation the fingerprint counts collapse (no host signal),\n"
        "but every timer read costs a trap — the overhead §6 warns about\n"
        "for timestamp-hungry workloads (databases, tracing, media)."
    )


if __name__ == "__main__":
    main()

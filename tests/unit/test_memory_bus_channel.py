"""Unit tests for the memory-bus covert channel (prior-work baseline)."""


from repro.cloud.services import ServiceConfig
from repro.core.covert import MemoryBusCovertChannel, RngCovertChannel


def launch(env, n, name="svc"):
    client = env.attacker
    service = client.deploy(ServiceConfig(name=name))
    handles = client.connect(service, n)
    truth = {h.instance_id: env.orchestrator.true_host_of(h.instance_id) for h in handles}
    return handles, truth


def split_by_host(handles, truth):
    by_host: dict = {}
    for h in handles:
        by_host.setdefault(truth[h.instance_id], []).append(h)
    return by_host


class TestMemoryBusChannel:
    def test_colocated_pair_positive(self, tiny_env):
        handles, truth = launch(tiny_env, 20)
        pair = next(
            hs for hs in split_by_host(handles, truth).values() if len(hs) >= 2
        )[:2]
        result = MemoryBusCovertChannel().ctest(pair, threshold_m=2)
        assert all(result.positive)

    def test_separated_pair_negative(self, tiny_env):
        handles, truth = launch(tiny_env, 10)
        hosts = list(split_by_host(handles, truth).values())
        pair = [hosts[0][0], hosts[1][0]]
        result = MemoryBusCovertChannel().ctest(pair, threshold_m=2)
        assert not any(result.positive)

    def test_slower_than_rng_channel(self):
        assert (
            MemoryBusCovertChannel().seconds_per_test
            > RngCovertChannel().seconds_per_test
        )

    def test_background_noisier_than_rng(self, tiny_env):
        """The bus sees far more spurious contention than the RNG: a lone
        instance pressuring each resource observes elevated levels much
        more often on the bus."""
        handles, truth = launch(tiny_env, 10)
        reps = [members[0] for members in split_by_host(handles, truth).values()]
        lone = reps[0]

        def elevated_fraction(start, observe, stop):
            lone.run(start)
            try:
                readings = [lone.run(observe) for _ in range(400)]
            finally:
                lone.run(stop)
            return sum(1 for level in readings if level >= 2) / len(readings)

        rng_rate = elevated_fraction(
            lambda s: s.start_channel_pressure("rng"),
            lambda s: s.observe_channel_contention("rng"),
            lambda s: s.stop_channel_pressure("rng"),
        )
        bus_rate = elevated_fraction(
            lambda s: s.start_channel_pressure("bus"),
            lambda s: s.observe_channel_contention("bus"),
            lambda s: s.stop_channel_pressure("bus"),
        )
        assert rng_rate < 0.03
        assert bus_rate > 5 * max(rng_rate, 0.005)

    def test_both_channels_agree_on_verdicts(self, tiny_env):
        """Despite the noise, the bus channel's longer integration keeps
        pairwise verdicts correct."""
        handles, truth = launch(tiny_env, 20)
        by_host = split_by_host(handles, truth)
        colocated = next(hs for hs in by_host.values() if len(hs) >= 2)[:2]
        hosts = list(by_host.values())
        separated = [hosts[0][0], hosts[1][0]]
        bus = MemoryBusCovertChannel()
        assert all(bus.ctest(colocated, threshold_m=2).positive)
        assert not any(bus.ctest(separated, threshold_m=2).positive)

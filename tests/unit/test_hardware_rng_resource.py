"""Unit tests for the RNG contention resource."""

import numpy as np
import pytest

from repro.hardware.rng_resource import ContentionResource


def noiseless() -> ContentionResource:
    return ContentionResource(background_rate=0.0, drop_rate=0.0)


class TestRngContentionResource:
    def test_single_pressurer_observes_only_itself(self, rng):
        res = noiseless()
        res.start_pressure("a")
        assert res.observe("a", rng) == 1

    def test_two_colocated_pressurers_observe_two(self, rng):
        res = noiseless()
        res.start_pressure("a")
        res.start_pressure("b")
        assert res.observe("a", rng) == 2
        assert res.observe("b", rng) == 2

    def test_n_pressurers_observe_n(self, rng):
        res = noiseless()
        for i in range(5):
            res.start_pressure(f"i{i}")
        assert res.observe("i0", rng) == 5

    def test_observe_without_pressure_rejected(self, rng):
        res = noiseless()
        with pytest.raises(ValueError):
            res.observe("ghost", rng)

    def test_stop_pressure_removes_contribution(self, rng):
        res = noiseless()
        res.start_pressure("a")
        res.start_pressure("b")
        res.stop_pressure("b")
        assert res.observe("a", rng) == 1

    def test_stop_unknown_is_noop(self):
        noiseless().stop_pressure("ghost")

    def test_double_start_counts_once(self, rng):
        res = noiseless()
        res.start_pressure("a")
        res.start_pressure("a")
        assert res.pressurer_count == 1

    def test_background_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            ContentionResource(background_rate=1.5)
        with pytest.raises(ValueError):
            ContentionResource(drop_rate=-0.1)

    def test_background_contention_is_rare(self, rng):
        """Paper: the chance of background RNG contention is under 1%."""
        res = ContentionResource()
        res.start_pressure("solo")
        observations = [res.observe("solo", rng) for _ in range(5000)]
        elevated = sum(1 for level in observations if level >= 2)
        assert elevated / len(observations) < 0.02

    def test_drops_occasionally_hide_partners(self, rng):
        res = ContentionResource(background_rate=0.0, drop_rate=0.5)
        res.start_pressure("a")
        res.start_pressure("b")
        observations = [res.observe("a", rng) for _ in range(500)]
        assert min(observations) == 1 and max(observations) == 2


def noisy() -> ContentionResource:
    """Nonzero noise on both axes so stream identity is actually exercised."""
    return ContentionResource(background_rate=0.3, drop_rate=0.25)


def scalar_window(
    res: ContentionResource,
    observers: list[str],
    n_rounds: int,
    death_round: dict[str, int],
    rngs: dict[str, np.random.Generator],
) -> dict[str, list[int]]:
    """Reference engine: the scalar per-round loop, visiting observers in
    schedule order and stopping a dying observer's pressure at its own slot.

    Mutates ``res`` (dead observers are unregistered), so callers give it
    its own resource instance.
    """
    levels: dict[str, list[int]] = {instance_id: [] for instance_id in observers}
    dead: set[str] = set()
    for round_index in range(n_rounds):
        for instance_id in observers:
            if instance_id in dead:
                continue
            if death_round.get(instance_id) == round_index:
                dead.add(instance_id)
                res.stop_pressure(instance_id)
                continue
            levels[instance_id].append(res.observe(instance_id, rngs[instance_id]))
    return levels


class TestObserveRounds:
    """Pins the draw-order contract: ``observe_rounds`` is byte-identical
    to the scalar loop — same levels, same generator end states."""

    def _twin_worlds(self, observers, externals=()):
        scalar_res, batch_res = noisy(), noisy()
        for res in (scalar_res, batch_res):
            for instance_id in list(observers) + list(externals):
                res.start_pressure(instance_id)
        scalar_rngs = {o: np.random.default_rng(100 + i) for i, o in enumerate(observers)}
        batch_rngs = {o: np.random.default_rng(100 + i) for i, o in enumerate(observers)}
        return scalar_res, batch_res, scalar_rngs, batch_rngs

    def assert_identical(self, observers, n_rounds, death_round, externals=()):
        scalar_res, batch_res, scalar_rngs, batch_rngs = self._twin_worlds(
            observers, externals
        )
        expected = scalar_window(
            scalar_res, observers, n_rounds, death_round, scalar_rngs
        )
        got = batch_res.observe_rounds(
            [(o, batch_rngs[o]) for o in observers],
            n_rounds,
            stop_rounds=[death_round.get(o) for o in observers],
        )
        for instance_id, levels in zip(observers, got):
            assert list(levels) == expected[instance_id], instance_id
        for instance_id in observers:
            assert (
                str(batch_rngs[instance_id].bit_generator.state)
                == str(scalar_rngs[instance_id].bit_generator.state)
            ), f"generator end state diverged for {instance_id}"

    def test_contract_pin_no_deaths(self):
        self.assert_identical(["a", "b", "c"], n_rounds=40, death_round={})

    def test_contract_pin_with_external_pressurers(self):
        # Non-observer pressurers contribute every round on both paths.
        self.assert_identical(
            ["a", "b"], n_rounds=30, death_round={}, externals=["x", "y", "z"]
        )

    def test_contract_pin_with_mid_window_death(self):
        self.assert_identical(["a", "b", "c"], n_rounds=20, death_round={"b": 7})

    def test_contract_pin_death_at_round_zero(self):
        self.assert_identical(["a", "b"], n_rounds=15, death_round={"a": 0})

    def test_contract_pin_death_at_last_round(self):
        self.assert_identical(["a", "b"], n_rounds=15, death_round={"b": 14})

    def test_contract_pin_everyone_dies(self):
        self.assert_identical(
            ["a", "b", "c"], n_rounds=12, death_round={"a": 3, "b": 3, "c": 9}
        )

    def test_single_observer(self):
        self.assert_identical(["solo"], n_rounds=25, death_round={})

    def test_death_slot_ordering_within_round(self):
        """In the death round itself, observers scheduled *before* the dying
        instance still see its pressure; observers after it do not."""
        res = noiseless()
        for instance_id in ("early", "dying", "late"):
            res.start_pressure(instance_id)
        rngs = {o: np.random.default_rng(0) for o in ("early", "dying", "late")}
        early, dying, late = res.observe_rounds(
            [(o, rngs[o]) for o in ("early", "dying", "late")],
            n_rounds=2,
            stop_rounds=[None, 1, None],
        )
        assert list(early) == [3, 3]  # sees the dying pressurer both rounds
        assert list(dying) == [3]  # observes only round 0
        assert list(late) == [3, 2]  # dying already gone at late's slot

    def test_does_not_mutate_pressurer_set(self):
        res = noiseless()
        res.start_pressure("a")
        res.start_pressure("b")
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(2)
        res.observe_rounds([("a", rng_a), ("b", rng_b)], 5, stop_rounds=[2, None])
        assert res.current_pressurers() == {"a", "b"}

    def test_zero_rounds_consumes_no_state(self):
        res = noiseless()
        res.start_pressure("a")
        rng_a = np.random.default_rng(7)
        before = str(rng_a.bit_generator.state)
        (levels,) = res.observe_rounds([("a", rng_a)], 0)
        assert levels.size == 0
        assert str(rng_a.bit_generator.state) == before

    def test_stop_rounds_clamped_to_window(self):
        res = noiseless()
        res.start_pressure("a")
        (levels,) = res.observe_rounds(
            [("a", np.random.default_rng(7))], 4, stop_rounds=[99]
        )
        assert list(levels) == [1, 1, 1, 1]

    def test_duplicate_observers_rejected(self):
        res = noiseless()
        res.start_pressure("a")
        rngs = (np.random.default_rng(1), np.random.default_rng(2))
        with pytest.raises(ValueError, match="distinct"):
            res.observe_rounds([("a", rngs[0]), ("a", rngs[1])], 3)

    def test_non_pressuring_observer_rejected(self):
        res = noiseless()
        res.start_pressure("a")
        with pytest.raises(ValueError, match="ghost"):
            res.observe_rounds(
                [("a", np.random.default_rng(1)), ("ghost", np.random.default_rng(2))],
                3,
            )

    def test_stop_rounds_length_mismatch_rejected(self):
        res = noiseless()
        res.start_pressure("a")
        with pytest.raises(ValueError, match="stop_rounds"):
            res.observe_rounds([("a", np.random.default_rng(1))], 3, stop_rounds=[1, 2])

    def test_negative_stop_round_rejected(self):
        res = noiseless()
        res.start_pressure("a")
        with pytest.raises(ValueError, match="stop_rounds"):
            res.observe_rounds([("a", np.random.default_rng(1))], 3, stop_rounds=[-1])

    def test_negative_n_rounds_rejected(self):
        res = noiseless()
        res.start_pressure("a")
        with pytest.raises(ValueError, match="n_rounds"):
            res.observe_rounds([("a", np.random.default_rng(1))], -1)

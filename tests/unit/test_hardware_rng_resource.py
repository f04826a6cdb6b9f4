"""Unit tests for the RNG contention resource."""

import numpy as np
import pytest

from repro.hardware.rng_resource import ContentionResource, window_hits


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


def batch_hits(observers, rngs, n_rounds, threshold, death_round, resource):
    """``window_hits`` over one resource at one threshold for every observer."""
    return list(
        window_hits(
            [(resource, o, rngs[o]) for o in observers],
            n_rounds,
            [threshold] * len(observers),
            stop_rounds=[death_round.get(o) for o in observers],
        )
    )


class TestObserveRounds:
    """Pins the draw-order contract: ``window_hits`` is byte-identical to
    the scalar loop — the same hit count at every threshold (so the same
    level histogram per observer) and the same generator end states."""

    def _twin_worlds(self, observers, externals=()):
        scalar_res, batch_res = noisy(), noisy()
        for res in (scalar_res, batch_res):
            for instance_id in list(observers) + list(externals):
                res.start_pressure(instance_id)
        return scalar_res, batch_res

    @staticmethod
    def _rngs(observers):
        return {o: np.random.default_rng(100 + i) for i, o in enumerate(observers)}

    def assert_identical(self, observers, n_rounds, death_round, externals=()):
        scalar_res, batch_res = self._twin_worlds(observers, externals)
        scalar_rngs = self._rngs(observers)
        expected = scalar_window(
            scalar_res, observers, n_rounds, death_round, scalar_rngs
        )
        # Levels run from 1 to every pressurer plus background; one fresh
        # twin per threshold recovers each observer's level histogram.
        for threshold in range(1, len(observers) + len(externals) + 3):
            batch_rngs = self._rngs(observers)
            got = batch_hits(
                observers, batch_rngs, n_rounds, threshold, death_round, batch_res
            )
            want = [
                sum(level >= threshold for level in expected[o]) for o in observers
            ]
            assert got == want, f"threshold {threshold}"
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
        observers = ("early", "dying", "late")
        for instance_id in observers:
            res.start_pressure(instance_id)

        def hits_at(threshold):
            rngs = {o: np.random.default_rng(0) for o in observers}
            return batch_hits(observers, rngs, 2, threshold, {"dying": 1}, res)

        # Levels: early [3, 3] (sees the dying pressurer both rounds),
        # dying [3] (observes only round 0), late [3, 2] (dying already
        # gone at late's slot).
        assert hits_at(3) == [2, 1, 1]
        assert hits_at(2) == [2, 1, 2]
        assert hits_at(4) == [0, 0, 0]

    def test_does_not_mutate_pressurer_set(self):
        res = noiseless()
        res.start_pressure("a")
        res.start_pressure("b")
        rngs = {"a": np.random.default_rng(1), "b": np.random.default_rng(2)}
        batch_hits(["a", "b"], rngs, 5, 2, {"a": 2}, res)
        assert res.current_pressurers() == {"a", "b"}

    def test_zero_rounds_consumes_no_state(self):
        res = noiseless()
        res.start_pressure("a")
        rng_a = np.random.default_rng(7)
        before = str(rng_a.bit_generator.state)
        hits = window_hits([(res, "a", rng_a)], 0, [1])
        assert list(hits) == [0]
        assert str(rng_a.bit_generator.state) == before

    def test_stop_rounds_clamped_to_window(self):
        res = noiseless()
        res.start_pressure("a")
        rng_a = np.random.default_rng(7)
        hits = window_hits([(res, "a", rng_a)], 4, [1], stop_rounds=[99])
        assert list(hits) == [4]
        twin = np.random.default_rng(7)
        twin.random(4)
        assert str(rng_a.bit_generator.state) == str(twin.bit_generator.state)

    def test_duplicate_observers_rejected(self):
        res = noiseless()
        res.start_pressure("a")
        rngs = (np.random.default_rng(1), np.random.default_rng(2))
        with pytest.raises(ValueError, match="distinct"):
            window_hits([(res, "a", rngs[0]), (res, "a", rngs[1])], 3, [2, 2])

    def test_non_pressuring_observer_rejected(self):
        res = noiseless()
        res.start_pressure("a")
        with pytest.raises(ValueError, match="ghost"):
            window_hits(
                [
                    (res, "a", np.random.default_rng(1)),
                    (res, "ghost", np.random.default_rng(2)),
                ],
                3,
                [2, 2],
            )

    def test_stop_rounds_length_mismatch_rejected(self):
        res = noiseless()
        res.start_pressure("a")
        with pytest.raises(ValueError, match="stop_rounds"):
            window_hits(
                [(res, "a", np.random.default_rng(1))], 3, [2], stop_rounds=[1, 2]
            )

    def test_thresholds_length_mismatch_rejected(self):
        res = noiseless()
        res.start_pressure("a")
        with pytest.raises(ValueError, match="thresholds"):
            window_hits([(res, "a", np.random.default_rng(1))], 3, [2, 2])

    def test_negative_stop_round_rejected(self):
        res = noiseless()
        res.start_pressure("a")
        with pytest.raises(ValueError, match="stop_rounds"):
            window_hits(
                [(res, "a", np.random.default_rng(1))], 3, [2], stop_rounds=[-1]
            )

    def test_negative_n_rounds_rejected(self):
        res = noiseless()
        res.start_pressure("a")
        with pytest.raises(ValueError, match="n_rounds"):
            window_hits([(res, "a", np.random.default_rng(1))], -1, [2])

    def test_saturation_caps_reachable_threshold(self):
        """A threshold above the resource's saturation is never hit, and
        the clamp consumes no extra draws."""
        res = ContentionResource(background_rate=0.0, drop_rate=0.0, saturation=2)
        for instance_id in ("a", "b", "c"):
            res.start_pressure(instance_id)
        rngs = {o: np.random.default_rng(5) for o in ("a", "b", "c")}
        assert batch_hits(["a", "b", "c"], rngs, 6, 2, {}, res) == [6, 6, 6]
        assert batch_hits(["a", "b", "c"], rngs, 6, 3, {}, res) == [0, 0, 0]

    def test_hosts_interleaved_in_schedule_order(self):
        """Observers of several resources may interleave in the input; each
        resource's window sees only its own pressurers, and hit counts come
        back in input order."""
        left, right = noiseless(), noiseless()
        for instance_id in ("a", "b"):
            left.start_pressure(instance_id)
        for instance_id in ("x", "y", "z"):
            right.start_pressure(instance_id)
        rng = np.random.default_rng
        observers = [
            (left, "a", rng(1)),
            (right, "x", rng(2)),
            (left, "b", rng(3)),
            (right, "y", rng(4)),
            (right, "z", rng(5)),
        ]
        assert list(window_hits(observers, 5, [2, 3, 2, 3, 3])) == [5] * 5
        assert list(window_hits(observers, 5, [3, 4, 3, 4, 4])) == [0] * 5

    def test_contract_pin_hosts_with_different_rates(self):
        """Resources with their own drop and background rates, observers
        interleaved across them, one with a death: each host's window
        still equals its own scalar loop."""

        def world():
            left = ContentionResource(background_rate=0.3, drop_rate=0.25)
            right = ContentionResource(background_rate=0.1, drop_rate=0.5)
            for instance_id in ("a", "b", "c"):
                left.start_pressure(instance_id)
            for instance_id in ("x", "y"):
                right.start_pressure(instance_id)
            return left, right

        schedule = ["a", "x", "b", "y", "c"]
        death_round = {"b": 6}
        scalar_left, scalar_right = world()
        scalar_rngs = self._rngs(schedule)
        expected = scalar_window(
            scalar_left, ["a", "b", "c"], 20, death_round, scalar_rngs
        )
        expected.update(scalar_window(scalar_right, ["x", "y"], 20, {}, scalar_rngs))
        for threshold in range(1, 6):
            left, right = world()
            rngs = self._rngs(schedule)
            resource_of = {"a": left, "b": left, "c": left, "x": right, "y": right}
            got = window_hits(
                [(resource_of[o], o, rngs[o]) for o in schedule],
                20,
                [threshold] * len(schedule),
                stop_rounds=[death_round.get(o) for o in schedule],
            )
            want = [sum(level >= threshold for level in expected[o]) for o in schedule]
            assert list(got) == want, f"threshold {threshold}"
            for o in schedule:
                assert str(rngs[o].bit_generator.state) == str(
                    scalar_rngs[o].bit_generator.state
                ), o

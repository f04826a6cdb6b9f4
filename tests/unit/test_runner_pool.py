"""Unit tests for the process-pool runner and its determinism guarantee."""

import pytest

from repro.experiments.launch_behavior import _distribution_cell
from repro.faults import FaultPlan, FaultSpec
from repro.runner import (
    CellExecutionError,
    CellSpec,
    RunnerConfig,
    RunStats,
    run_cells,
)


def _slow_square(config: dict, seed: int) -> int:
    return config["x"] * config["x"] + seed


def _explode_on_three(config: dict, seed: int) -> int:
    if config["x"] == 3:
        raise ValueError("boom")
    return config["x"] * 10 + seed


def _make_specs(n: int) -> list[CellSpec]:
    return [
        CellSpec(
            experiment="pool-demo",
            fn=_slow_square,
            config={"x": i},
            seed=i,
            label=f"cell-{i}",
        )
        for i in range(n)
    ]


class TestRunCells:
    def test_serial_results_in_spec_order(self):
        results = run_cells(_make_specs(5))
        assert [r.value for r in results] == [i * i + i for i in range(5)]
        assert [r.label for r in results] == [f"cell-{i}" for i in range(5)]

    def test_pool_results_in_spec_order(self):
        runner = RunnerConfig(parallelism=2)
        results = run_cells(_make_specs(5), runner)
        assert [r.value for r in results] == [i * i + i for i in range(5)]

    def test_stats_accumulate_across_calls(self):
        runner = RunnerConfig()
        run_cells(_make_specs(3), runner)
        run_cells(_make_specs(2), runner)
        assert runner.stats.cells == 5
        assert runner.stats.cache_hits == 0
        assert runner.stats.wall_seconds > 0.0

    def test_hit_rate_handles_zero_cells(self):
        assert RunStats().hit_rate == 0.0

    def test_summary_mentions_cells_and_hits(self):
        stats = RunStats(cells=4, cache_hits=3, parallelism=2)
        text = stats.summary()
        assert "4 cells" in text
        assert "3 cache hits" in text
        assert "75%" in text

    def test_empty_spec_list(self):
        assert run_cells([]) == []


def _fragile_specs(n: int = 5) -> list[CellSpec]:
    return [
        CellSpec(
            experiment="fragile-demo",
            fn=_explode_on_three,
            config={"x": i},
            seed=i,
            label=f"cell-{i}",
        )
        for i in range(n)
    ]


class TestErrorIsolation:
    """The satellite-2 regression: one raising cell must not discard its
    siblings' work, and the propagated error must name the cell."""

    def test_failure_raises_labeled_error(self):
        runner = RunnerConfig(max_retries=0)
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(_fragile_specs(), runner)
        message = str(excinfo.value)
        assert "cell-3" in message
        assert "ValueError" in message
        assert "boom" in message
        assert "1 of 5 cells failed" in message

    def test_siblings_cached_despite_failure(self, tmp_path):
        runner = RunnerConfig(
            cache_read=True, cache_write=True, cache_dir=tmp_path, max_retries=0
        )
        with pytest.raises(CellExecutionError):
            run_cells(_fragile_specs(), runner)
        # A second run must restore every sibling from the cache — their
        # work was written as each cell completed, not lost to the raise.
        rerun = RunnerConfig(
            cache_read=True,
            cache_write=True,
            cache_dir=tmp_path,
            max_retries=0,
            isolate_errors=True,
        )
        results = run_cells(_fragile_specs(), rerun)
        assert [r.cached for r in results] == [True, True, True, False, True]

    def test_isolate_errors_returns_structured_results(self):
        runner = RunnerConfig(max_retries=0, isolate_errors=True)
        results = run_cells(_fragile_specs(), runner)
        assert [r.ok for r in results] == [True, True, True, False, True]
        failed = results[3]
        assert failed.value is None
        assert failed.error == "cell-3: ValueError: boom"
        assert [r.value for r in results if r.ok] == [0 * 10 + 0, 11, 22, 44]
        assert runner.stats.cell_errors == 1

    def test_pooled_failure_isolation_matches_serial(self):
        serial = run_cells(
            _fragile_specs(), RunnerConfig(max_retries=0, isolate_errors=True)
        )
        pooled = run_cells(
            _fragile_specs(),
            RunnerConfig(parallelism=2, max_retries=0, isolate_errors=True),
        )
        assert [(r.value, r.error) for r in serial] == [
            (r.value, r.error) for r in pooled
        ]

    def test_real_errors_are_retried(self):
        runner = RunnerConfig(max_retries=2, isolate_errors=True)
        run_cells(_fragile_specs(), runner)
        # The deterministic failure burns the full retry budget.
        assert runner.stats.cell_retries == 2
        assert runner.stats.cell_errors == 1


class TestFaultInjection:
    def _plan(self, rate=0.6, seed=1) -> FaultPlan:
        return FaultPlan(FaultSpec(cell_error_rate=rate, seed=seed))

    def test_injected_faults_recovered_by_retries(self):
        runner = RunnerConfig(fault_plan=self._plan(), max_retries=6)
        results = run_cells(_make_specs(6), runner)
        clean = run_cells(_make_specs(6))
        assert [r.value for r in results] == [r.value for r in clean]
        assert runner.stats.cell_retries > 0
        assert runner.stats.cell_errors == 0

    def test_certain_faults_exhaust_retries(self):
        runner = RunnerConfig(
            fault_plan=self._plan(rate=1.0), max_retries=2, isolate_errors=True
        )
        results = run_cells(_make_specs(3), runner)
        assert all(not r.ok for r in results)
        assert all("injected fault" in r.error for r in results)
        assert runner.stats.cell_errors == 3
        assert runner.stats.cell_retries == 6

    def test_fault_run_bypasses_cache(self, tmp_path):
        faulted = RunnerConfig(
            cache_read=True,
            cache_write=True,
            cache_dir=tmp_path,
            fault_plan=self._plan(),
            max_retries=6,
        )
        run_cells(_make_specs(4), faulted)
        # Nothing the faulted run produced may satisfy a clean run's reads.
        clean = RunnerConfig(cache_read=True, cache_write=True, cache_dir=tmp_path)
        run_cells(_make_specs(4), clean)
        assert clean.stats.cache_hits == 0

    def test_disabled_plan_keeps_cache_active(self, tmp_path):
        # An all-zero-rates plan injects nothing; caching stays on.
        runner = RunnerConfig(
            cache_read=True,
            cache_write=True,
            cache_dir=tmp_path,
            fault_plan=FaultPlan(),
        )
        run_cells(_make_specs(3), runner)
        results = run_cells(_make_specs(3), runner)
        assert all(r.cached for r in results)

    def test_serial_and_pooled_identical_under_faults(self):
        spec = FaultSpec(cell_error_rate=0.6, seed=1)
        serial = RunnerConfig(fault_plan=FaultPlan(spec), max_retries=6)
        pooled = RunnerConfig(
            fault_plan=FaultPlan(spec), max_retries=6, parallelism=2
        )
        a = run_cells(_make_specs(6), serial)
        b = run_cells(_make_specs(6), pooled)
        assert [r.value_digest() for r in a] == [r.value_digest() for r in b]
        # The fault schedule is deterministic, so both runs paid the exact
        # same retries — regardless of scheduling.
        assert serial.stats.cell_retries == pooled.stats.cell_retries


class TestSerialPoolIdentity:
    """The satellite-2 regression: the same ``CellSpec`` must produce a
    byte-identical ``CellResult`` whether it runs in-process or in a
    worker pool.  This exercises a real simulation cell end-to-end, so it
    catches any RNG that escapes the cell's master seed (module-level
    ``random``, iteration-order-dependent draws)."""

    def _real_specs(self) -> list[CellSpec]:
        params = {"region": "us-east1", "instances": 60}
        return [
            CellSpec(
                experiment="exp1-test",
                fn=_distribution_cell,
                config=params,
                seed=seed,
                label=f"seed-{seed}",
            )
            for seed in (101, 202)
        ]

    def test_serial_and_pooled_results_byte_identical(self):
        serial = run_cells(self._real_specs())
        pooled = run_cells(self._real_specs(), RunnerConfig(parallelism=2))
        assert [r.value_digest() for r in serial] == [
            r.value_digest() for r in pooled
        ]

    def test_repeat_serial_run_byte_identical(self):
        first = run_cells(self._real_specs())
        second = run_cells(self._real_specs())
        assert [r.value_digest() for r in first] == [
            r.value_digest() for r in second
        ]

    def test_cached_value_byte_identical_to_computed(self, tmp_path):
        runner = RunnerConfig(cache_read=True, cache_write=True, cache_dir=tmp_path)
        computed = run_cells(self._real_specs(), runner)
        restored = run_cells(self._real_specs(), runner)
        assert all(r.cached for r in restored)
        assert [r.value_digest() for r in computed] == [
            r.value_digest() for r in restored
        ]

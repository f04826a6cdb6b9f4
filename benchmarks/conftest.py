"""Shared helpers for the benchmark harness.

``test_bench_figures.py`` is the fidelity tier: one case per (figure
spec, scale).  Each regenerates one table or figure of the paper from its
:class:`~repro.experiments.spec.FigureSpec` — the same config the CLI
runs — prints the paper-vs-measured report, and asserts the spec's
reproduction bands: we match *shape* — who wins, by roughly what factor,
where crossovers fall — not the authors' absolute testbed numbers.
Quick-scale cases skip the bands marked ``full_only``; CI gates the quick
cases.  The ``test_bench_ablation_*`` and ``test_bench_robustness`` files
hold sweeps that reproduce no single figure.

Run with::

    pytest benchmarks/test_bench_figures.py -k quick            # CI gate
    pytest benchmarks/test_bench_figures.py --benchmark-only -k full
    pytest benchmarks/ --benchmark-only                         # everything

Append ``-s`` to see the regenerated tables inline.  For one figure's
telemetry counters, run ``python -m repro --metrics run <id> --scale
full``: it runs the same spec.

The multi-cell benchmarks route through :mod:`repro.runner`; set
``REPRO_BENCH_JOBS=N`` to fan their simulation cells over N worker
processes and ``REPRO_BENCH_CACHE=1`` to reuse completed cells from the
on-disk cache (off by default — a cached benchmark measures cache reads,
not the simulation).
"""

from __future__ import annotations

import os

import pytest

from repro.runner import RunnerConfig


@pytest.fixture
def runner() -> RunnerConfig:
    """A fresh env-configured RunnerConfig; stats cover just this test."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0"))
    cache = os.environ.get("REPRO_BENCH_CACHE", "") == "1"
    return RunnerConfig(parallelism=jobs, cache_read=cache, cache_write=cache)


def run_once(benchmark, fn):
    """Benchmark ``fn`` with exactly one timed execution.

    Experiment drivers are deterministic end-to-end simulations; repeating
    them only re-measures the same code path, so one round suffices.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def emit():
    """Print a regenerated table so `-s` shows it inline."""

    def _emit(text: str) -> None:
        print()
        print(text)

    return _emit

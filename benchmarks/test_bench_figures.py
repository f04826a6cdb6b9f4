"""Every reproduced figure, at quick and full scale, against its bands.

One case per (figure spec, scale): run the spec's driver on that scale's
config (exactly what ``python -m repro run <id> --scale <scale>`` runs),
print its report, and assert every reproduction band.  Quick-scale cases
skip the bands marked ``full_only``.

Quick scale only (the CI fidelity gate)::

    pytest benchmarks/test_bench_figures.py -k quick

The full-scale loop (CI's ``fidelity-full`` gate)::

    REPRO_BENCH_JOBS=2 pytest benchmarks/test_bench_figures.py -k full --benchmark-disable
"""

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.spec import SCALES

from benchmarks.conftest import run_once


@pytest.mark.parametrize(
    "spec, scale",
    [
        pytest.param(spec, scale, id=f"{spec.id}-{scale}")
        for spec in EXPERIMENTS.values()
        for scale in SCALES
    ],
)
def test_figure_bands(spec, scale, benchmark, emit, runner):
    result = run_once(benchmark, lambda: spec.run(scale, runner))
    emit(spec.report(result, scale))

    failed = [f"{band.name} (paper: {band.paper})" for band in spec.failed_bands(result, scale)]
    assert not failed, f"{spec.id} at {scale} scale misses its bands: {failed}"

"""Registry mapping experiment ids to their :class:`FigureSpec`.

Used by the CLI (``python -m repro``) and handy in notebooks:

>>> from repro.experiments.registry import run_experiment
>>> print(run_experiment("exp1", scale="quick"))    # doctest: +SKIP

Each entry regenerates one table or figure of the paper and returns the
formatted paper-vs-measured text.  The specs live next to their drivers
(see :mod:`repro.experiments.spec`); the fidelity benchmark
(``benchmarks/test_bench_figures.py``) checks their bands on the same
configs.
"""

from __future__ import annotations

from repro.experiments import (
    attack_cost,
    background_load,
    census,
    channel_matrix,
    coverage,
    defenses,
    expiration,
    fingerprint_accuracy,
    frequency_noise,
    gen2_accuracy,
    helper_episodes,
    idle_termination,
    launch_behavior,
    surveillance,
    verification_cost,
    victim_locator,
)
from repro.experiments.spec import FigureSpec
from repro.runner import RunnerConfig
from repro.telemetry import current_telemetry

#: Experiment id -> spec.
EXPERIMENTS: dict[str, FigureSpec] = {
    spec.id: spec
    for spec in (
        fingerprint_accuracy.FIG4, expiration.FIG5, idle_termination.FIG6,
        launch_behavior.EXP1, launch_behavior.FIG7, launch_behavior.FIG7_FRESH,
        launch_behavior.FIG8, launch_behavior.FIG9, launch_behavior.FIG9_SWEEP,
        helper_episodes.FIG10, coverage.FIG11A, coverage.FIG11B, census.FIG12,
        frequency_noise.SEC42, verification_cost.SEC43, verification_cost.SEC43_SCALING,
        gen2_accuracy.SEC45, coverage.NAIVE, coverage.GEN2COV,
        attack_cost.COST, attack_cost.COST_ABLATION,
        surveillance.SURVEILLANCE, victim_locator.VICTIM_LOCATOR,
        background_load.BACKGROUND_LOAD, channel_matrix.CHANNEL_MATRIX, defenses.DEFENSES,
    )
}


def get_spec(experiment_id: str) -> FigureSpec:
    """Look up one experiment's spec.

    Raises
    ------
    KeyError
        For unknown experiment ids, listing the valid ones.
    """
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None


def run_experiment(
    experiment_id: str,
    scale: str = "quick",
    runner: RunnerConfig | None = None,
) -> str:
    """Run one registered experiment and return its formatted report.

    Pass a :class:`~repro.runner.RunnerConfig` to execute the experiment's
    independent simulation cells in worker processes and/or reuse cached
    cells; its timing and cache-hit counters are appended to the report.

    Raises
    ------
    KeyError
        For unknown experiment ids; ``EXPERIMENTS`` lists the valid ones.
    ValueError
        For a scale other than ``"quick"`` or ``"full"``.
    """
    spec = get_spec(experiment_id)
    with current_telemetry().span(
        "experiment", experiment=experiment_id, scale=scale
    ):
        report = spec.report(spec.run(scale, runner), scale)
    if runner is not None and runner.stats.cells:
        report += f"\n\n[runner] {runner.stats.summary()}"
    return report

"""One declaration per paper figure: configs, driver, report and bands.

A :class:`FigureSpec` is everything needed to regenerate one table or
figure of the paper: the driver to call, the configs it runs at each
scale, the renderer that turns the driver's result into the printed
report, and the reproduction :class:`Band` s that result must satisfy.
Each experiment module declares its figures' specs; the registry (and so
the CLI) and the fidelity benchmark (``benchmarks/test_bench_figures.py``)
are loops over them, so ``python -m repro run X --scale full`` runs exactly
what the bands are checked on.

``quick`` configs shrink repetition counts and regions (not the
800-instance launches themselves) so every figure finishes in seconds;
``full`` configs are the benchmark scale.  A band that only holds at full
scale says so with ``full_only``; every other band is checked at both.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable

from repro.runner import RunnerConfig

SCALES = ("quick", "full")


@dataclass(frozen=True)
class Band:
    """One reproduction band: a paper claim as a predicate on a result."""

    name: str
    #: The paper's value or claim, as printed next to a failure.
    paper: str
    holds: Callable[[Any], bool]
    #: True when the band needs the full-scale config (more regions,
    #: repetitions or sweep points) to be meaningful or to hold.
    full_only: bool = False


@dataclass(frozen=True)
class FigureSpec:
    """One reproduced figure: how to run it, report it and check it."""

    id: str
    description: str
    quick: Any
    full: Any
    #: ``driver(config)`` or ``driver(config, runner=...)``; drivers that
    #: take a runner execute their simulation cells through it.
    driver: Callable[..., Any]
    #: ``render(result, config) -> report text``.
    render: Callable[[Any, Any], str]
    bands: tuple[Band, ...]

    def config(self, scale: str) -> Any:
        """The config this figure runs at ``scale``."""
        if scale not in SCALES:
            raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
        return self.quick if scale == "quick" else self.full

    @property
    def takes_runner(self) -> bool:
        """Whether the driver runs cells, so runner settings reach it."""
        return "runner" in inspect.signature(self.driver).parameters

    def run(self, scale: str, runner: RunnerConfig | None = None) -> Any:
        """Call the driver on the ``scale`` config and return its result."""
        config = self.config(scale)
        if self.takes_runner:
            return self.driver(config, runner=runner)
        return self.driver(config)

    def report(self, result: Any, scale: str) -> str:
        """Render a result of :meth:`run` at ``scale``."""
        return self.render(result, self.config(scale))

    def failed_bands(self, result: Any, scale: str) -> list[Band]:
        """Bands checked at ``scale`` that ``result`` violates."""
        return [
            band
            for band in self.bands
            if (scale == "full" or not band.full_only) and not band.holds(result)
        ]

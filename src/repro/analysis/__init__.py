"""Attacker-side analysis: clustering metrics, drift fitting, distributions,
and terminal chart rendering."""

from repro.analysis.aggregation import FootprintAccumulator
from repro.analysis.asciichart import render_cdf, render_series
from repro.analysis.distributions import cdf_at, empirical_cdf, summarize
from repro.analysis.drift import DriftFit, estimate_expiration_time, fit_boot_time_drift
from repro.analysis.metrics import (
    PairConfusion,
    fowlkes_mallows_index,
    pair_confusion,
    victim_instance_coverage,
)

__all__ = [
    "FootprintAccumulator",
    "render_cdf",
    "render_series",
    "cdf_at",
    "empirical_cdf",
    "summarize",
    "DriftFit",
    "estimate_expiration_time",
    "fit_boot_time_drift",
    "PairConfusion",
    "fowlkes_mallows_index",
    "pair_confusion",
    "victim_instance_coverage",
]

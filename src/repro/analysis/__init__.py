"""Attacker-side analysis: clustering metrics, drift fitting, distributions,
policy inference, and terminal chart rendering."""

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
from repro.analysis.policy_inference import (
    IdlePolicyEstimate,
    estimate_base_set_size,
    estimate_hot_window,
    estimate_recruit_rate,
    fit_idle_policy,
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
    "IdlePolicyEstimate",
    "estimate_base_set_size",
    "estimate_hot_window",
    "estimate_recruit_rate",
    "fit_idle_policy",
]

"""Boot-time drift fitting and fingerprint expiration (paper §4.4.2).

Because the reported TSC frequency carries a constant error, the derived
boot time drifts *linearly* with real-world time (Eq. 4.2).  Fitting a line
to a host's fingerprint history therefore (a) confirms the linear-drift
hypothesis (the paper finds |r| >= 0.9997 on every history) and (b) lets us
extrapolate when the rounded boot time will cross a rounding boundary —
the fingerprint's *expiration time*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class DriftFit:
    """Linear fit of derived boot time against measurement wall time.

    Attributes
    ----------
    slope:
        Drift rate in seconds of boot-time change per second of real time
        (``epsilon / f_r`` in the paper's notation).
    intercept:
        Fitted boot time at wall time zero.
    r_value:
        Pearson correlation coefficient of the fit.
    """

    slope: float
    intercept: float
    r_value: float

    def boot_time_at(self, wall_time: float) -> float:
        """Fitted (unrounded) boot time at a given wall time."""
        return self.intercept + self.slope * wall_time


def fit_boot_time_drift(
    wall_times: Sequence[float], boot_times: Sequence[float]
) -> DriftFit:
    """Least-squares fit of a fingerprint history.

    Parameters
    ----------
    wall_times:
        Measurement times (seconds since epoch).
    boot_times:
        Derived (unrounded) boot times at those measurements.
    """
    if len(wall_times) != len(boot_times):
        raise ValueError("wall_times and boot_times must have equal length")
    if len(wall_times) < 3:
        raise ValueError("need at least 3 points to fit a drift line")
    x = np.asarray(wall_times)
    y = np.asarray(boot_times)
    if np.amax(x) == np.amin(x):
        raise ValueError("cannot fit a drift line: all wall times are identical")
    # linregress's closed form, operation for operation and branch for
    # branch, so the fit is bit-identical to it (pinned by
    # tests/unit/test_analysis_drift.py).
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    return DriftFit(
        slope=float(slope),
        intercept=float(intercept),
        r_value=1.0 if math.isnan(r) else float(r),
    )


def estimate_expiration_time(
    fit: DriftFit, at_wall_time: float, p_boot: float
) -> float:
    """Time until the rounded boot time changes, from ``at_wall_time``.

    The fingerprint expires when the drifting boot time crosses the nearest
    rounding boundary in the drift direction.  Returns ``math.inf`` for a
    host with no measurable drift.
    """
    if p_boot <= 0:
        raise ValueError(f"p_boot must be positive, got {p_boot!r}")
    if fit.slope == 0.0:
        return math.inf
    boot_now = fit.boot_time_at(at_wall_time)
    bucket = round(boot_now / p_boot)
    if fit.slope > 0:
        boundary = (bucket + 0.5) * p_boot
        distance = boundary - boot_now
    else:
        boundary = (bucket - 0.5) * p_boot
        distance = boot_now - boundary
    return max(0.0, distance / abs(fit.slope))

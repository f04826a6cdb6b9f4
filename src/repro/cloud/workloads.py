"""Request-workload models that drive autoscaling.

FaaS victims are web services whose instance counts follow their traffic
(paper §2.2): the orchestrator scales out on request surges and scales in
when demand declines.  These patterns generate the *desired concurrent
requests* over time;
:meth:`~repro.cloud.services.ServiceConfig.target_for` turns a demand into
an instance count.
"""

from __future__ import annotations

import abc
import bisect
import math

import numpy as np

from repro import units


class RequestPattern(abc.ABC):
    """A time-varying request-concurrency demand."""

    @abc.abstractmethod
    def concurrency_at(self, elapsed_s: float) -> int:
        """Desired concurrent in-flight requests at ``elapsed_s``."""

    def concurrency_series(self, times_s: np.ndarray) -> np.ndarray:
        """Vectorized demand samples at an array of elapsed times.

        Returns an ``int64`` array the same length as ``times_s``.  For
        deterministic patterns the series equals calling
        :meth:`concurrency_at` point by point (pinned by property tests);
        stochastic patterns (:class:`PoissonLoad`) instead draw the whole
        series as one batched RNG call, which is *not* pinned to the
        scalar call sequence.  The background-traffic engine
        (:mod:`repro.cloud.traffic`) precomputes entire tenant schedules
        through this method instead of per-tick Python calls.
        """
        times = np.asarray(times_s, dtype=np.float64)
        return np.fromiter(
            (self.concurrency_at(float(t)) for t in times),
            dtype=np.int64,
            count=times.shape[0],
        )


class ConstantLoad(RequestPattern):
    """A flat request load."""

    def __init__(self, concurrency: int) -> None:
        if concurrency < 0:
            raise ValueError(f"concurrency must be >= 0, got {concurrency}")
        self.concurrency = concurrency

    def concurrency_at(self, elapsed_s: float) -> int:
        return self.concurrency

    def concurrency_series(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=np.float64)
        return np.full(times.shape[0], self.concurrency, dtype=np.int64)


class DiurnalLoad(RequestPattern):
    """A day/night sinusoid between ``trough`` and ``peak`` concurrency."""

    def __init__(
        self,
        trough: int,
        peak: int,
        period_s: float = 1 * units.DAY,
        phase_s: float = 0.0,
    ) -> None:
        if trough < 0:
            raise ValueError(f"trough must be >= 0, got {trough}")
        if trough > peak:
            raise ValueError(f"trough ({trough}) cannot exceed peak ({peak})")
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        self.trough = trough
        self.peak = peak
        self.period_s = period_s
        self.phase_s = phase_s

    def concurrency_at(self, elapsed_s: float) -> int:
        phase = 2 * math.pi * (elapsed_s + self.phase_s) / self.period_s
        level = (1 - math.cos(phase)) / 2  # 0 at trough, 1 at peak
        return round(self.trough + (self.peak - self.trough) * level)

    def concurrency_series(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=np.float64)
        phase = 2 * np.pi * (times + self.phase_s) / self.period_s
        level = (1 - np.cos(phase)) / 2
        # np.rint rounds half-to-even exactly like the scalar round().
        return np.rint(self.trough + (self.peak - self.trough) * level).astype(
            np.int64
        )


class BurstLoad(RequestPattern):
    """A flat base load with one rectangular traffic burst."""

    def __init__(
        self, base: int, burst: int, burst_start_s: float, burst_duration_s: float
    ) -> None:
        if base < 0:
            raise ValueError(f"base must be >= 0, got {base}")
        if burst < base:
            raise ValueError(f"burst ({burst}) must be >= base ({base})")
        self.base = base
        self.burst = burst
        self.burst_start_s = burst_start_s
        self.burst_duration_s = burst_duration_s

    def concurrency_at(self, elapsed_s: float) -> int:
        in_burst = (
            self.burst_start_s <= elapsed_s < self.burst_start_s + self.burst_duration_s
        )
        return self.burst if in_burst else self.base

    def concurrency_series(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=np.float64)
        in_burst = (self.burst_start_s <= times) & (
            times < self.burst_start_s + self.burst_duration_s
        )
        return np.where(in_burst, self.burst, self.base).astype(np.int64)


class TraceLoad(RequestPattern):
    """Replay a recorded concurrency trace (step-wise, with hold-last).

    Parameters
    ----------
    times_s / concurrency:
        Sample times (ascending, seconds from trace start) and the
        concurrency observed at each.  Between samples the last value
        holds; before the first sample the first value holds; after the
        last, the last.
    """

    def __init__(self, times_s: list[float], concurrency: list[int]) -> None:
        if len(times_s) != len(concurrency):
            raise ValueError("times and concurrency must have equal length")
        if not times_s:
            raise ValueError("a trace needs at least one sample")
        if any(b < a for a, b in zip(times_s, times_s[1:])):
            raise ValueError("trace times must be ascending")
        if any(value < 0 for value in concurrency):
            raise ValueError("trace concurrency values must be >= 0")
        self.times_s = list(times_s)
        self.concurrency = list(concurrency)

    def concurrency_at(self, elapsed_s: float) -> int:
        # Hold-last lookup: the last sample at or before ``elapsed_s``
        # (clamped to the first sample before trace start).  ``bisect``
        # makes every query O(log n) where the old linear scan was O(n)
        # per call — and a driver queries once per tick.
        index = max(0, bisect.bisect_right(self.times_s, elapsed_s) - 1)
        return self.concurrency[index]

    def concurrency_series(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=np.float64)
        # searchsorted(side="right") is the vectorized twin of the scalar
        # bisect_right hold-last lookup (same duplicate/before-start rules).
        indices = np.maximum(
            0, np.searchsorted(self.times_s, times, side="right") - 1
        )
        return np.asarray(self.concurrency, dtype=np.int64)[indices]

    @classmethod
    def bursty(
        cls,
        duration_s: float,
        step_s: float,
        base: int,
        rng: np.random.Generator,
        burst_probability: float = 0.05,
        burst_scale: float = 4.0,
    ) -> "TraceLoad":
        """Generate a synthetic production-like trace: an AR(1) baseline
        with occasional multiplicative bursts."""
        steps = max(1, int(duration_s / step_s))
        times, values = [], []
        level = float(base)
        for i in range(steps):
            level = 0.8 * level + 0.2 * base + rng.normal(0, base * 0.1)
            value = max(0.0, level)
            if rng.random() < burst_probability:
                value *= burst_scale
            times.append(i * step_s)
            values.append(int(round(value)))
        return cls(times, values)


class PoissonLoad(RequestPattern):
    """Stochastic load: Little's-law concurrency with Poisson noise.

    With arrival rate ``lambda`` (requests/s) and mean service time ``S``,
    the mean concurrency is ``lambda * S``; per-step samples are Poisson
    around it, which makes autoscaling jitter realistically.
    """

    def __init__(
        self,
        arrivals_per_s: float,
        service_time_s: float,
        rng: np.random.Generator | None = None,
    ) -> None:
        if arrivals_per_s < 0 or service_time_s < 0:
            raise ValueError("arrival rate and service time must be >= 0")
        self.mean_concurrency = arrivals_per_s * service_time_s
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def concurrency_at(self, elapsed_s: float) -> int:
        return int(self._rng.poisson(self.mean_concurrency))

    def concurrency_series(self, times_s: np.ndarray) -> np.ndarray:
        # One batched draw for the whole series.  NumPy does not guarantee
        # that a size-n poisson draw consumes the bit stream like n scalar
        # draws, so the series is deterministic per generator state but
        # deliberately not pinned to the scalar call sequence.
        times = np.asarray(times_s, dtype=np.float64)
        return self._rng.poisson(
            self.mean_concurrency, size=times.shape[0]
        ).astype(np.int64)

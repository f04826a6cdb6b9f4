"""Typed metric containers: counters, gauges, and histograms.

A :class:`MetricSet` is the mutable numeric state behind the telemetry
handle (:class:`~repro.telemetry.tracer.Telemetry`), a covert channel's
``stats`` (:class:`~repro.core.covert.CovertChannel`) and the runner's
:class:`~repro.runner.pool.RunStats` facade.  Three metric kinds:

* **counters** — monotonically accumulated sums (``inc``);
* **gauges** — last-write-wins point-in-time values (``gauge``);
* **histograms** — summarized observations (``observe``), stored as
  ``(count, total, min, max)`` so they merge across processes without
  keeping every sample.

Counter and histogram accumulation is commutative and associative, so
totals are independent of execution order — the property that lets worker
processes keep their own sets and :meth:`MetricSet.merge` fold them into
the parent without caring who finished first.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class HistogramSummary:
    """Order-independent summary of a stream of observations."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "HistogramSummary") -> None:
        """Fold another summary into this one."""
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON-able representation."""
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


@dataclass
class MetricSet:
    """A named collection of counters, gauges, and histograms."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSummary] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = HistogramSummary()
        hist.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when absent)."""
        return self.counters.get(name, 0)

    def snapshot(self) -> dict[str, float]:
        """Copy of the counters, for later :meth:`since` deltas."""
        return dict(self.counters)

    def since(self, snapshot: dict[str, float]) -> dict[str, float]:
        """Per-counter growth since a :meth:`snapshot`.

        The delta discipline is what makes re-entrant consumers safe: a
        caller that wants "cost of *this* call" snapshots before and reads
        the difference after, instead of resetting shared counters (which
        would double-count or lose concurrent increments).
        """
        return {
            name: value - snapshot.get(name, 0)
            for name, value in self.counters.items()
            if value != snapshot.get(name, 0)
        }

    def merge(self, other: "MetricSet") -> None:
        """Fold another set into this one (counters/histograms add;
        gauges last-write-wins)."""
        for name, value in other.counters.items():
            self.inc(name, value)
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = HistogramSummary()
            mine.merge(hist)

    def as_dict(self) -> dict:
        """Deterministic (sorted-key) JSON-able representation."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].as_dict() for k in sorted(self.histograms)
            },
        }

    def to_state(self) -> dict:
        """Picklable/JSON-able state for cross-process transfer."""
        return self.as_dict()

    @classmethod
    def from_state(cls, state: dict) -> "MetricSet":
        """Rebuild a set from :meth:`to_state` output."""
        ms = cls()
        ms.counters.update(state.get("counters", {}))
        ms.gauges.update(state.get("gauges", {}))
        for name, h in state.get("histograms", {}).items():
            if h.get("count"):
                ms.histograms[name] = HistogramSummary(
                    count=h["count"], total=h["total"], min=h["min"], max=h["max"]
                )
        return ms

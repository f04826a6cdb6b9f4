"""Figure 6: idle-instance termination behavior (Experiment 1, part 2).

Launch many instances, disconnect from all of them, and record when the
orchestrator terminates each one by capturing SIGTERM.

Paper reference: idle instances are preserved for the first ~2 minutes,
then gradually terminated; practically all are gone ~12 minutes after
disconnecting (the documented bound is 15 minutes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.analysis.asciichart import render_series
from repro.cloud.services import ServiceConfig
from repro.experiments.base import default_env
from repro.experiments.report import format_series
from repro.experiments.spec import Band, FigureSpec

PAPER_GRACE_MINUTES = 2.0
PAPER_ALL_GONE_MINUTES = 12.0


@dataclass(frozen=True)
class IdleTerminationConfig:
    """Configuration for the Fig. 6 experiment."""

    region: str = "us-east1"
    instances: int = 800
    observe_minutes: float = 16.0
    sample_every_s: float = 30.0
    seed: int = 400


@dataclass
class IdleTerminationResult:
    """Outcome of the Fig. 6 experiment."""

    #: ``(minutes since disconnect, idle instances remaining)`` series.
    series: list[tuple[float, int]] = field(default_factory=list)
    termination_times_min: list[float] = field(default_factory=list)
    instances: int = 0

    @property
    def remaining_at(self) -> dict[float, int]:
        return {t: n for t, n in self.series}

    def remaining_after(self, minutes: float) -> int:
        """Idle instances still alive ``minutes`` after disconnecting."""
        remaining = self.instances
        for t, n in self.series:
            if t <= minutes:
                remaining = n
        return remaining


def run(config: IdleTerminationConfig = IdleTerminationConfig()) -> IdleTerminationResult:
    """Run the Fig. 6 idle-termination experiment."""
    env = default_env(config.region, seed=config.seed)
    client = env.attacker
    service = client.deploy(
        ServiceConfig(name="idle-study", max_instances=max(100, config.instances))
    )
    handles = client.connect(service, config.instances)

    disconnect_time = client.now()
    terminations: list[float] = []
    for handle in handles:
        handle.on_sigterm(lambda when: terminations.append(when))
    client.disconnect(service)

    result = IdleTerminationResult(instances=len(handles))
    elapsed = 0.0
    horizon = config.observe_minutes * units.MINUTE
    result.series.append((0.0, len(handles)))
    while elapsed < horizon:
        client.wait(config.sample_every_s)
        elapsed += config.sample_every_s
        remaining = len(handles) - len(terminations)
        result.series.append((elapsed / units.MINUTE, remaining))
    result.termination_times_min = sorted(
        (when - disconnect_time) / units.MINUTE for when in terminations
    )
    return result


def _render(result: IdleTerminationResult, config: IdleTerminationConfig) -> str:
    table = format_series(
        "Figure 6 — idle instances vs minutes since disconnect",
        ("minutes", "idle"),
        [(t, n) for t, n in result.series if t == int(t)],
    )
    chart = render_series(
        [t for t, _n in result.series],
        [n for _t, n in result.series],
        title="idle instances vs minutes since disconnect",
        x_label="minutes",
        y_label="instances",
    )
    return table + "\n\n" + chart


FIG6 = FigureSpec(
    id="fig6", description="idle instance termination",
    quick=IdleTerminationConfig(),
    full=IdleTerminationConfig(),
    driver=run, render=_render,
    bands=(
        Band("grace period: all alive at 1.9 min", f"~{PAPER_GRACE_MINUTES:g} min",
             lambda r: r.remaining_after(1.9) == r.instances),
        Band("termination is gradual: some alive at 7 min", "gradual",
             lambda r: 0 < r.remaining_after(7.0) < r.instances),
        Band("<= 1% alive at 12.5 min", f"~0 by {PAPER_ALL_GONE_MINUTES:g} min",
             lambda r: r.remaining_after(12.5) <= 0.01 * r.instances),
        Band("none alive at 15 min", "documented 15-min bound",
             lambda r: r.remaining_after(15.0) == 0),
        Band("decay is monotone", "monotone",
             lambda r: all(a >= b for (_, a), (_, b) in zip(r.series, r.series[1:]))),
    ),
)

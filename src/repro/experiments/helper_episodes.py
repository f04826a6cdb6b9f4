"""Figure 10: helper-host footprints across services (Observation 6).

Six episodes; each episode primes a *different* service with six launches at
a 10-minute interval and measures its helper-host footprint (the footprint
after the sixth launch minus the footprint after the first).  The cumulative
union of helper footprints grows with every episode — different services
recruit different, but overlapping, helper sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.cloud.services import ServiceConfig
from repro.core.fingerprint import fingerprint_gen1_instances
from repro.experiments.base import default_env
from repro.experiments.report import format_series
from repro.experiments.spec import Band, FigureSpec


@dataclass(frozen=True)
class EpisodesConfig:
    """Configuration for the Fig. 10 experiment."""

    region: str = "us-east1"
    episodes: int = 6
    launches_per_episode: int = 6
    instances: int = 800
    interval: float = 10 * units.MINUTE
    cooldown: float = 45 * units.MINUTE
    p_boot: float = 1.0
    seed: int = 530


@dataclass
class EpisodesResult:
    """Per-episode helper footprints and their cumulative union."""

    per_episode_helpers: list[int] = field(default_factory=list)
    cumulative_helpers: list[int] = field(default_factory=list)

    @property
    def cumulative_growth_per_episode(self) -> list[int]:
        """How much each episode added to the cumulative helper set."""
        growth = [self.cumulative_helpers[0]]
        for i in range(1, len(self.cumulative_helpers)):
            growth.append(self.cumulative_helpers[i] - self.cumulative_helpers[i - 1])
        return growth

    @property
    def overlapping(self) -> bool:
        """True when helper sets overlap across services (Observation 6):
        every episode after the first adds fewer new helpers than it has."""
        return all(
            added < count
            for added, count in zip(
                self.cumulative_growth_per_episode[1:], self.per_episode_helpers[1:]
            )
        )


def run(config: EpisodesConfig = EpisodesConfig()) -> EpisodesResult:
    """Run the Fig. 10 helper-episode experiment."""
    env = default_env(config.region, seed=config.seed)
    client = env.attacker
    result = EpisodesResult()
    cumulative: set = set()

    for episode in range(config.episodes):
        name = client.deploy(
            ServiceConfig(
                name=f"episode-{episode}", max_instances=max(100, config.instances)
            )
        )
        footprints: list[set] = []
        for launch_idx in range(config.launches_per_episode):
            start = client.now()
            handles = client.connect(name, config.instances)
            tagged = fingerprint_gen1_instances(handles, p_boot=config.p_boot)
            footprints.append({fp for _, fp in tagged})
            client.disconnect(name)
            if launch_idx != config.launches_per_episode - 1:
                elapsed = client.now() - start
                client.wait(max(0.0, config.interval - elapsed))

        helpers = footprints[-1] - footprints[0]
        cumulative |= helpers
        result.per_episode_helpers.append(len(helpers))
        result.cumulative_helpers.append(len(cumulative))
        client.wait(config.cooldown)
    return result


def _render(result: EpisodesResult, config: EpisodesConfig) -> str:
    return format_series(
        "Figure 10 — helper hosts per episode",
        ("episode", "helpers", "cumulative"),
        [
            (i + 1, p, c)
            for i, (p, c) in enumerate(
                zip(result.per_episode_helpers, result.cumulative_helpers)
            )
        ],
    )


FIG10 = FigureSpec(
    id="fig10", description="helper footprints across services",
    quick=EpisodesConfig(episodes=3),
    full=EpisodesConfig(),
    driver=run, render=_render,
    bands=(
        Band("six episodes", "6 services", lambda r: len(r.per_episode_helpers) == 6,
             full_only=True),
        Band("every episode recruits > 100 helpers", "substantial helper sets",
             lambda r: all(count > 100 for count in r.per_episode_helpers)),
        Band("cumulative footprint grows every episode", "expands per episode",
             lambda r: all(b > a for a, b in zip(r.cumulative_helpers, r.cumulative_helpers[1:]))),
        Band("each episode adds fewer than its own helpers", "helper sets overlap",
             lambda r: r.overlapping),
    ),
)

"""Tracking hosts over time through their fingerprints (paper §4.4.2).

Conventional pairwise covert channels only confirm co-location *at one
moment*; fingerprints let an attacker recognize the same host across hours
or days — until the reported-frequency drift pushes the rounded boot time
over a rounding boundary and the fingerprint "expires".

:class:`HostTracker` keeps one long-running probe instance per apparent host
and records its derived (unrounded) boot time on a fixed cadence, producing
per-host fingerprint histories for drift fitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.analysis.drift import DriftFit, estimate_expiration_time, fit_boot_time_drift
from repro.cloud.api import FaaSClient, InstanceHandle
from repro.cloud.services import ServiceConfig
from repro.core.fingerprint import fingerprint_gen1_instances, gen1_samples, group_by_fingerprint


@dataclass
class FingerprintHistory:
    """One host's fingerprint measurements over time."""

    wall_times: list[float] = field(default_factory=list)
    boot_times: list[float] = field(default_factory=list)

    @property
    def span_seconds(self) -> float:
        """Time between the first and last measurement."""
        if len(self.wall_times) < 2:
            return 0.0
        return self.wall_times[-1] - self.wall_times[0]

    def fit_drift(self) -> DriftFit:
        """Fit the boot-time drift line for this history."""
        return fit_boot_time_drift(self.wall_times, self.boot_times)

    def expiration_seconds(self, p_boot: float = 1.0) -> float:
        """Estimated fingerprint lifetime from the first measurement."""
        fit = self.fit_drift()
        return estimate_expiration_time(fit, self.wall_times[0], p_boot)


class HostTracker:
    """Continuously fingerprints a set of hosts via long-running instances.

    Parameters
    ----------
    client:
        The attacker's FaaS client.
    n_launch:
        Instances to launch initially; one tracked representative is kept
        per apparent host discovered among them.
    max_tracked:
        Upper bound on the number of tracked hosts.
    """

    def __init__(
        self, client: FaaSClient, n_launch: int = 100, max_tracked: int = 80
    ) -> None:
        self._client = client
        self._n_launch = n_launch
        self._max_tracked = max_tracked
        self._trackers: list[InstanceHandle] = []
        self.histories: list[FingerprintHistory] = []
        self._service_name: str | None = None

    def start(self, service_name: str = "tracker") -> int:
        """Launch instances and select one representative per apparent host.

        Returns the number of hosts being tracked.
        """
        self._service_name = self._client.deploy(
            ServiceConfig(name=service_name, max_instances=max(100, self._n_launch))
        )
        handles = self._client.connect(self._service_name, self._n_launch)
        groups = group_by_fingerprint(fingerprint_gen1_instances(handles, p_boot=1.0))
        self._trackers = [members[0] for members in groups.values()][: self._max_tracked]
        self.histories = [FingerprintHistory() for _ in self._trackers]
        return len(self._trackers)

    def observe(self) -> None:
        """Sample every alive tracked instance, as one columnar Gen 1 probe."""
        alive = [i for i, handle in enumerate(self._trackers) if handle.alive]
        _kept, samples = gen1_samples([self._trackers[i] for i in alive])
        columns = (samples.positions, samples.wall_times, samples.boot_times)
        for position, wall_time, boot_time in zip(*(column.tolist() for column in columns)):
            self.histories[alive[position]].wall_times.append(wall_time)
            self.histories[alive[position]].boot_times.append(boot_time)

    def run(
        self,
        duration_s: float = 7 * units.DAY,
        cadence_s: float = 1 * units.HOUR,
        min_history_s: float = 24 * units.HOUR,
    ) -> list[FingerprintHistory]:
        """Observe on a fixed cadence for ``duration_s``.

        Histories shorter than ``min_history_s`` (e.g. because an instance
        died) are filtered out, matching the paper's 24-hour cutoff.
        """
        if not self._trackers:
            self.start()
        elapsed = 0.0
        self.observe()
        while elapsed < duration_s:
            self._client.wait(cadence_s)
            elapsed += cadence_s
            self.observe()
        return [h for h in self.histories if h.span_seconds >= min_history_s]

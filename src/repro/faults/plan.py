"""Seeded, deterministic fault schedules for resilience testing.

Real co-location campaigns run against a noisy platform: launches fail or
stall, covert-channel tests flip verdicts under background contention, an
instance dies mid-test, a worker process dies on one experiment cell.  The
simulator needs to *inject* those failures — and the attack/experiment
stack needs to *survive* them — without giving up the reproducibility
guarantees the runner depends on (serial vs. pooled runs must stay
byte-identical).

The core trick is that a :class:`FaultPlan` is **stateless**: every
decision is a pure function of ``(seed, site, token)`` hashed through
SHA-256, where the token names the event (an instance id plus attempt
number, a CTest batch slot, a cell cache key).  Two consequences:

* the same seed reproduces the same fault schedule exactly, regardless of
  execution order, process boundaries, or interleaving; and
* a *retry* of the same operation carries a new attempt number, so a
  bounded retry loop deterministically escapes transient faults.

Counters are the only mutable state, and they are advisory: they feed the
``[runner]`` line and a covert channel's ``stats`` counters, never a
decision.  (When a plan is pickled into a worker process the worker's
counter increments stay in the worker; parent-side accounting is derived
from structured results instead.)  Every increment is also mirrored to
the ambient :mod:`repro.telemetry` handle as a ``faults.*`` counter —
and because the runner merges each cell's telemetry back into the
parent, those counters *are* exhaustive under ``--jobs``, unlike the
plan's own in-process counters.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, fields, replace
from typing import Any

from repro.errors import FaultSpecError
from repro.telemetry import current_telemetry

#: ``FaultSpec.parse`` aliases: short CLI-friendly names for spec fields.
_SPEC_ALIASES = {
    "launch": "launch_error_rate",
    "slow": "slow_launch_rate",
    "slow_seconds": "slow_launch_seconds",
    "ctest": "ctest_noise_rate",
    "death": "ctest_death_rate",
    "probe": "probe_noise_rate",
    "probe_seconds": "probe_noise_seconds",
    "cell": "cell_error_rate",
    "seed": "seed",
}


@dataclass(frozen=True)
class FaultSpec:
    """What to inject, how often, and under which seed.

    All rates are per-event probabilities in ``[0, 1]``; a rate of 0
    disables that fault site entirely.

    Attributes
    ----------
    launch_error_rate:
        Probability that one instance-launch attempt fails (retryable).
    slow_launch_rate / slow_launch_seconds:
        Probability that a successfully launched instance adds
        ``slow_launch_seconds`` of extra cold-start latency.
    ctest_noise_rate:
        Probability that one instance's verdict in one CTest is flipped
        (transient channel noise / background contention).
    ctest_death_rate:
        Probability that one instance dies mid-test (stops pressuring and
        reports nothing), as a platform reap racing the test would cause.
    probe_noise_rate / probe_noise_seconds:
        Probability that one victim-latency probe response is delayed by
        ``probe_noise_seconds`` of unrelated platform noise (a routing
        hiccup, a GC pause in the victim) — the transient spikes the
        Target Victim Locator must filter out.
    cell_error_rate:
        Probability that one experiment-cell execution attempt raises.
    seed:
        Master seed of the schedule; same seed, same faults — everywhere.
    """

    launch_error_rate: float = 0.0
    slow_launch_rate: float = 0.0
    slow_launch_seconds: float = 5.0
    ctest_noise_rate: float = 0.0
    ctest_death_rate: float = 0.0
    probe_noise_rate: float = 0.0
    probe_noise_seconds: float = 0.25
    cell_error_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "launch_error_rate",
            "slow_launch_rate",
            "ctest_noise_rate",
            "ctest_death_rate",
            "probe_noise_rate",
            "cell_error_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_launch_seconds < 0.0:
            raise FaultSpecError(
                f"slow_launch_seconds must be >= 0, got {self.slow_launch_seconds}"
            )
        if self.probe_noise_seconds < 0.0:
            raise FaultSpecError(
                f"probe_noise_seconds must be >= 0, got {self.probe_noise_seconds}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any fault site has a nonzero rate."""
        return any(
            getattr(self, name) > 0.0
            for name in (
                "launch_error_rate",
                "slow_launch_rate",
                "ctest_noise_rate",
                "ctest_death_rate",
                "probe_noise_rate",
                "cell_error_rate",
            )
        )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a ``key=value[,key=value...]`` spec string.

        Keys may be the short CLI aliases (``launch``, ``slow``,
        ``slow_seconds``, ``ctest``, ``death``, ``cell``, ``seed``) or the
        full field names.  Example: ``"launch=0.1,ctest=0.02,seed=7"``.
        """
        known = {f.name for f in fields(cls)}
        spec = cls()
        seen: set[str] = set()
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise FaultSpecError(
                    f"fault spec entry {part!r} is not of the form key=value"
                )
            name = _SPEC_ALIASES.get(key, key)
            if name not in known:
                raise FaultSpecError(
                    f"unknown fault spec key {key!r}; known: "
                    f"{', '.join(sorted(_SPEC_ALIASES))}"
                )
            if name in seen:
                raise FaultSpecError(f"duplicate fault spec key {key!r}")
            seen.add(name)
            try:
                parsed = int(value) if name == "seed" else float(value)
            except ValueError:
                raise FaultSpecError(
                    f"fault spec value for {key!r} is not a number: {value!r}"
                ) from None
            spec = replace(spec, **{name: parsed})
        return spec


@dataclass
class FaultCounters:
    """How many faults a plan injected (and retries it caused), per site."""

    launch_errors: int = 0
    launch_retries: int = 0
    slow_launches: int = 0
    ctest_noise: int = 0
    ctest_deaths: int = 0
    probe_noise: int = 0
    cell_errors: int = 0

    @property
    def total_injected(self) -> int:
        """All injected faults (retries are recovery, not injection)."""
        return (
            self.launch_errors
            + self.slow_launches
            + self.ctest_noise
            + self.ctest_deaths
            + self.probe_noise
            + self.cell_errors
        )

    def summary(self) -> str:
        """One-line human-readable report of the counters."""
        return (
            f"{self.total_injected} faults injected "
            f"(launch {self.launch_errors}, slow {self.slow_launches}, "
            f"ctest-noise {self.ctest_noise}, ctest-death {self.ctest_deaths}, "
            f"probe-noise {self.probe_noise}, cell {self.cell_errors}), "
            f"{self.launch_retries} launch retries"
        )


def hashed_uniform(seed: int, site: str, token: str) -> float:
    """A pure uniform ``[0, 1)`` draw for one named event.

    The draw is a SHA-256 hash of ``(seed, site, token)`` — no generator
    state — so the value depends only on the event's *name*, never on how
    many other draws happened first.  :class:`FaultPlan` decisions are
    built on this, and any subsystem that must stay deterministic under
    arbitrary event interleaving (e.g. background-traffic idle deadlines,
    :mod:`repro.cloud.traffic`) should draw from here rather than from a
    shared sequential RNG.
    """
    key = (type(seed), seed, site)
    prefix = _PREFIXES.get(key)
    if prefix is None:
        if len(_PREFIXES) >= _MAX_PREFIXES:
            _PREFIXES.clear()
        prefix = _PREFIXES[key] = hashlib.sha256(f"{seed}|{site}|".encode("utf-8"))
    # The hash of ``f"{seed}|{site}|{token}"``: UTF-8 encodes a
    # concatenation as the concatenation of the encodings.
    digest = prefix.copy()
    digest.update(token.encode("utf-8"))
    return _FIRST_WORD(digest.digest())[0] / 2**64


#: SHA-256 states that have hashed ``f"{seed}|{site}|"``, per ``(type of
#: seed, seed, site)``: a run makes tens of thousands of draws from a
#: handful of sites and seeds.  Cleared when full.
_PREFIXES: dict[tuple[type, int, str], Any] = {}
_MAX_PREFIXES = 1024
#: A digest's first eight bytes as a big-endian unsigned integer.
_FIRST_WORD = struct.Struct(">Q").unpack_from


class FaultPlan:
    """Deterministic per-event fault decisions for one :class:`FaultSpec`.

    Every ``should``-style method hashes ``(seed, site, token)`` to a
    uniform draw in ``[0, 1)`` and compares it to the site's rate.  The
    plan itself holds no evolving randomness, so it can be pickled into
    worker processes and consulted in any order without changing the
    schedule.
    """

    def __init__(self, spec: FaultSpec | None = None) -> None:
        self.spec = spec if spec is not None else FaultSpec()
        self.counters = FaultCounters()

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Build a plan from a ``key=value,...`` spec string."""
        return cls(FaultSpec.parse(text))

    @property
    def enabled(self) -> bool:
        """Whether this plan can inject anything at all."""
        return self.spec.enabled

    # ------------------------------------------------------------------
    # The deterministic core
    # ------------------------------------------------------------------
    def uniform(self, site: str, token: str) -> float:
        """The plan's uniform ``[0, 1)`` draw for one named event."""
        return hashed_uniform(self.spec.seed, site, token)

    # ------------------------------------------------------------------
    # Site-specific decisions
    # ------------------------------------------------------------------
    def launch_would_fail(self, instance_id: str, attempt: int) -> bool:
        """The launch decision alone, counting nothing (a look-ahead)."""
        return (
            self.uniform("launch", f"{instance_id}#a{attempt}")
            < self.spec.launch_error_rate
        )

    def launch_fails(self, instance_id: str, attempt: int) -> bool:
        """Whether launch ``attempt`` (0-based) of an instance fails."""
        failed = self.launch_would_fail(instance_id, attempt)
        if failed:
            self.counters.launch_errors += 1
            current_telemetry().count("faults.launch_errors")
        return failed

    def slow_launch_penalty(self, instance_id: str) -> float:
        """Extra cold-start seconds for one launched instance (0 if none)."""
        if self.uniform("slow-launch", instance_id) < self.spec.slow_launch_rate:
            self.counters.slow_launches += 1
            current_telemetry().count("faults.slow_launches")
            return self.spec.slow_launch_seconds
        return 0.0

    def ctest_noise(self, token: str) -> bool:
        """Whether one instance's verdict in one CTest is flipped."""
        flipped = self.uniform("ctest-noise", token) < self.spec.ctest_noise_rate
        if flipped:
            self.counters.ctest_noise += 1
            current_telemetry().count("faults.ctest_noise")
        return flipped

    def ctest_death_round(self, token: str, total_rounds: int) -> int | None:
        """The round at which an instance dies mid-test, or ``None``.

        The same draw that decides *whether* the instance dies also picks
        *when*: the sub-rate remainder maps uniformly onto the rounds.
        """
        rate = self.spec.ctest_death_rate
        draw = self.uniform("ctest-death", token)
        if rate <= 0.0 or draw >= rate:
            return None
        self.counters.ctest_deaths += 1
        current_telemetry().count("faults.ctest_deaths")
        return min(int(draw / rate * total_rounds), total_rounds - 1)

    def probe_delay_seconds(self, token: str) -> float:
        """Extra latency injected into one victim probe response (0 if none).

        The token should name the probe uniquely (service plus a probe
        sequence number), so a *re-probe* of the same measurement carries a
        fresh draw and a bounded retry loop escapes transient spikes.
        """
        if self.uniform("probe-noise", token) < self.spec.probe_noise_rate:
            self.counters.probe_noise += 1
            current_telemetry().count("faults.probe_noise")
            return self.spec.probe_noise_seconds
        return 0.0

    def cell_fails(self, cell_key: str, attempt: int) -> bool:
        """Whether execution ``attempt`` (0-based) of a cell raises."""
        failed = (
            self.uniform("cell", f"{cell_key}#a{attempt}")
            < self.spec.cell_error_rate
        )
        if failed:
            self.counters.cell_errors += 1
            current_telemetry().count("faults.cell_errors")
        return failed

"""Deterministic simulated time.

Everything in this package runs against a :class:`SimClock` instead of the
real wall clock, so that week-long experiments (e.g. the fingerprint
expiration study of Figure 5) run in milliseconds and are fully reproducible.
"""

from repro.simtime.clock import SIM_EPOCH, SimClock
from repro.simtime.scheduler import EventBatch, EventScheduler, ScheduledEvent

__all__ = ["SIM_EPOCH", "SimClock", "EventBatch", "EventScheduler", "ScheduledEvent"]

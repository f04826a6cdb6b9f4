"""A simple event scheduler driven by :class:`~repro.simtime.clock.SimClock`.

The FaaS orchestrator uses this to schedule deferred work such as idle
instance termination: events registered for time ``t`` fire as soon as the
clock advances to or past ``t``, in timestamp order.

The heap holds ``(when, sequence, event)`` tuples, so sifts compare floats
and ints in C; ``sequence`` is unique, so the event itself is never
compared.

Cancelled events are compacted lazily: a cancelled entry is dropped when it
reaches the top of the heap, and when more than half the heap is dead the
whole queue is rebuilt.  Long campaigns cancel thousands of keep-alive and
idle-timer events, so without compaction the heap grows without bound.

Many similar events can share one heap entry through an
:class:`EventBatch`: it reserves their sequence numbers as one block, so
each keeps the ``(when, sequence)`` key its own :meth:`~EventScheduler.call_at`
would have given it, and fires them in that order between the scheduler's
other events.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.simtime.clock import SimClock
from repro.telemetry import current_telemetry

#: Dead entries tolerated before compaction is even considered; keeps tiny
#: queues from re-heapifying constantly.
_COMPACT_MIN_DEAD = 64


class SequenceCounter:
    """A picklable ``itertools.count`` stand-in.

    ``itertools.count`` objects cannot be pickled, which would exclude the
    scheduler (and anything holding one, e.g. the orchestrator) from
    world snapshots (:mod:`repro.runner.worldcache`).  This counter
    exposes the same ``next(...)`` protocol with its position as plain
    state, so a restored world resumes numbering exactly where the
    snapshot left off.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 0) -> None:
        self.value = int(start)

    def __next__(self) -> int:
        value = self.value
        self.value += 1
        return value

    def __iter__(self) -> "SequenceCounter":
        return self

    def __getstate__(self) -> int:
        return self.value

    def __setstate__(self, state: int) -> None:
        self.value = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SequenceCounter({self.value})"


@dataclass
class ScheduledEvent:
    """An event queued for execution at a future simulated time.

    Events fire in ``(when, sequence)`` order, so events scheduled for the
    same instant fire in registration order.
    """

    when: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    _fired: bool = field(default=False, compare=False, repr=False)
    _owner: Optional["EventScheduler"] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Prevent this event from firing (no-op if it already fired)."""
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled()


class EventScheduler:
    """Fires callbacks as simulated time passes.

    The scheduler attaches itself to the clock's tick hooks, so any
    ``clock.sleep(...)`` automatically drains the events that became due.

    Examples
    --------
    >>> clock = SimClock()
    >>> sched = EventScheduler(clock)
    >>> fired = []
    >>> _ = sched.call_at(clock.now() + 10.0, lambda: fired.append("a"))
    >>> clock.sleep(5.0); fired
    []
    >>> clock.sleep(5.0); fired
    ['a']
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._queue: list[tuple[float, int, ScheduledEvent]] = []
        self._counter = SequenceCounter()
        self._dead = 0
        clock.add_tick_hook(self._on_tick)

    def call_at(
        self,
        when: float,
        action: Callable[[], None],
        *,
        sequence: int | None = None,
    ) -> ScheduledEvent:
        """Schedule ``action`` to run at absolute simulated time ``when``.

        Events scheduled in the past fire on the next clock advancement.
        Returns the event so callers may :meth:`~ScheduledEvent.cancel` it.
        ``sequence`` places the event at a number taken earlier with
        :meth:`reserve` instead of the next one; no two queued events may
        share a ``(when, sequence)`` key.
        """
        event = ScheduledEvent(
            when=float(when),
            sequence=next(self._counter) if sequence is None else sequence,
            action=action,
            _owner=self,
        )
        heapq.heappush(self._queue, (event.when, event.sequence, event))
        return event

    def call_after(self, delay: float, action: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        return self.call_at(self._clock.now() + delay, action)

    def reserve(self, count: int) -> int:
        """Take ``count`` consecutive sequence numbers; returns the first.

        The numbers are the ones ``count`` back-to-back :meth:`call_at`
        calls would have drawn, so events registered later keep theirs.
        """
        first = self._counter.value
        self._counter.value = first + count
        return first

    def next_key(self) -> tuple[float, int] | None:
        """``(when, sequence)`` of the next event to fire, or ``None``.

        Cancelled entries on top of the heap are dropped first, exactly as
        the firing loop would drop them.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
            self._dead -= 1
        return queue[0][:2] if queue else None

    def pending(self) -> int:
        """Return the number of events still waiting to fire (O(1))."""
        return len(self._queue) - self._dead

    def _note_cancelled(self) -> None:
        """Count one newly cancelled queued event; compact if >50% dead."""
        self._dead += 1
        current_telemetry().count("simtime.events_cancelled")
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries."""
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._dead = 0
        current_telemetry().count("simtime.compactions")

    def _on_tick(self, now: float) -> None:
        fired = 0
        # Re-read ``self._queue`` on every pass: an action that cancels
        # enough events triggers :meth:`_compact`, which rebinds it.
        while self._queue and self._queue[0][0] <= now:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                self._dead -= 1
                continue
            event._fired = True
            fired += 1
            event.action()
        if fired:
            current_telemetry().count("simtime.events_fired", fired)

    def detach(self) -> None:
        """Stop observing the clock and drop every queued event unfired
        (tearing down a simulation), breaking the cycles through the
        clock's hook and the queued actions.  A dropped event's cancel
        counts nothing; detaching twice is a no-op.
        """
        if self._on_tick in self._clock._tick_hooks:
            self._clock.remove_tick_hook(self._on_tick)
        for _when, _sequence, event in self._queue:
            event._owner = None
        self._queue = []
        self._dead = 0


class EventBatch:
    """Timed entries that fire in batches through one scheduler entry.

    :meth:`push` queues ``k`` entries under one block of ``k`` sequence
    numbers from :meth:`EventScheduler.reserve`, so entry ``i`` carries
    the key ``(whens[i], first + i)`` that the ``i``-th of ``k`` separate
    :meth:`~EventScheduler.call_at` calls would have given it.  The batch
    keeps a scheduler entry (its *wakeup*) at or before its head key, with
    the ``action`` last passed in; that action must call :meth:`take_due`
    exactly once per firing.  :meth:`take_due` pops every entry that is
    due and keyed before the scheduler's next event, then re-registers at
    the new head, so entries interleave with other events as individual
    events would.  The action must not advance the clock or schedule
    events before the entries it takes.

    Entries are never cancelled one by one: the owner tells live from
    stale entries when it takes them, and drops stale ones in bulk with
    :meth:`retain`.  Wakeups are never cancelled either; one left behind
    by a newer, earlier head fires later and finds nothing due.  The batch
    holds no action between wakeups, so it adds no reference cycle.
    """

    __slots__ = ("_scheduler", "_heap", "_wakeups")

    def __init__(self, scheduler: EventScheduler) -> None:
        self._scheduler = scheduler
        self._heap: list[tuple[float, int, Any]] = []
        self._wakeups: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self, whens: Sequence[float], items: Sequence[Any], action: Callable[[], None]
    ) -> int:
        """Queue ``items[i]`` at ``whens[i]``; returns the first sequence."""
        first = self._scheduler.reserve(len(items))
        heap = self._heap
        for entry in zip(whens, range(first, first + len(items)), items):
            heapq.heappush(heap, entry)
        self._arm(action)
        return first

    def take_due(self, action: Callable[[], None]) -> list[tuple[float, int, Any]]:
        """Pop the entries due before the scheduler's next event, in order."""
        heapq.heappop(self._wakeups)  # the wakeup firing now
        bound = self._scheduler.next_key()
        now = self._scheduler._clock.now()
        heap = self._heap
        due = []
        while heap and heap[0][0] <= now and (bound is None or heap[0] < bound):
            due.append(heapq.heappop(heap))
        self._arm(action)
        return due

    def retain(self, keep: Callable[[tuple[float, int, Any]], bool]) -> None:
        """Drop every entry for which ``keep`` is false."""
        self._heap = [entry for entry in self._heap if keep(entry)]
        heapq.heapify(self._heap)

    def _arm(self, action: Callable[[], None]) -> None:
        """Register a wakeup at the head unless one is already at or before it."""
        if not self._heap:
            return
        when, sequence = self._heap[0][:2]
        wakeups = self._wakeups
        if not wakeups or wakeups[0] > (when, sequence):
            self._scheduler.call_at(when, action, sequence=sequence)
            heapq.heappush(wakeups, (when, sequence))

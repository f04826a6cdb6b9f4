"""Unit tests for the event scheduler."""

from repro.simtime.clock import SimClock
from repro.simtime.scheduler import EventScheduler


class TestEventScheduler:
    def test_event_fires_when_time_reached(self, clock):
        sched = EventScheduler(clock)
        fired = []
        sched.call_after(10.0, lambda: fired.append("x"))
        clock.sleep(9.9)
        assert fired == []
        clock.sleep(0.2)
        assert fired == ["x"]

    def test_event_at_exact_time_fires(self, clock):
        sched = EventScheduler(clock)
        fired = []
        sched.call_at(clock.now() + 5.0, lambda: fired.append(1))
        clock.sleep(5.0)
        assert fired == [1]

    def test_events_fire_in_timestamp_order(self, clock):
        sched = EventScheduler(clock)
        order = []
        sched.call_after(20.0, lambda: order.append("late"))
        sched.call_after(10.0, lambda: order.append("early"))
        clock.sleep(30.0)
        assert order == ["early", "late"]

    def test_same_time_events_fire_in_registration_order(self, clock):
        sched = EventScheduler(clock)
        order = []
        sched.call_after(5.0, lambda: order.append("first"))
        sched.call_after(5.0, lambda: order.append("second"))
        clock.sleep(5.0)
        assert order == ["first", "second"]

    def test_cancelled_event_does_not_fire(self, clock):
        sched = EventScheduler(clock)
        fired = []
        event = sched.call_after(1.0, lambda: fired.append("x"))
        event.cancel()
        clock.sleep(2.0)
        assert fired == []

    def test_past_event_fires_on_next_tick(self, clock):
        sched = EventScheduler(clock)
        fired = []
        sched.call_at(clock.now() - 100.0, lambda: fired.append("x"))
        assert fired == []
        clock.sleep(0.001)
        assert fired == ["x"]

    def test_pending_counts_only_uncancelled(self, clock):
        sched = EventScheduler(clock)
        sched.call_after(1.0, lambda: None)
        event = sched.call_after(2.0, lambda: None)
        event.cancel()
        assert sched.pending() == 1

    def test_event_scheduled_during_callback_fires_later(self, clock):
        sched = EventScheduler(clock)
        fired = []

        def reschedule():
            fired.append("a")
            sched.call_after(10.0, lambda: fired.append("b"))

        sched.call_after(5.0, reschedule)
        clock.sleep(5.0)
        assert fired == ["a"]
        clock.sleep(10.0)
        assert fired == ["a", "b"]

    def test_detach_stops_observing(self, clock):
        sched = EventScheduler(clock)
        fired = []
        sched.call_after(1.0, lambda: fired.append("x"))
        sched.detach()
        clock.sleep(5.0)
        assert fired == []

    def test_multiple_schedulers_on_one_clock(self, clock):
        s1, s2 = EventScheduler(clock), EventScheduler(clock)
        fired = []
        s1.call_after(1.0, lambda: fired.append("s1"))
        s2.call_after(1.0, lambda: fired.append("s2"))
        clock.sleep(1.0)
        assert sorted(fired) == ["s1", "s2"]


class TestSchedulerStress:
    def test_many_interleaved_events(self, clock):
        """Hundreds of events across interleaved advances all fire once,
        in order."""
        sched = EventScheduler(clock)
        fired = []
        import random

        rnd = random.Random(5)
        delays = sorted(rnd.uniform(0, 1000) for _ in range(300))
        for i, delay in enumerate(delays):
            sched.call_after(delay, lambda i=i: fired.append(i))
        while clock.now() < SimClock().now() + 1001:
            clock.sleep(rnd.uniform(0, 37))
        assert fired == sorted(fired)
        assert len(fired) == 300

    def test_cancel_is_idempotent(self, clock):
        sched = EventScheduler(clock)
        event = sched.call_after(5.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sched.pending() == 0

    def test_cancel_after_fire_is_noop(self, clock):
        sched = EventScheduler(clock)
        fired = []
        event = sched.call_after(1.0, lambda: fired.append("x"))
        clock.sleep(2.0)
        assert fired == ["x"]
        event.cancel()  # must not corrupt the dead-entry accounting
        assert sched.pending() == 0
        sched.call_after(1.0, lambda: fired.append("y"))
        assert sched.pending() == 1
        clock.sleep(2.0)
        assert fired == ["x", "y"]

    def test_mass_cancel_compacts_queue(self, clock):
        """Cancelling most of a large queue rebuilds the heap instead of
        letting dead entries accumulate until their timestamps pass."""
        sched = EventScheduler(clock)
        keep = [sched.call_after(1e6 + i, lambda: None) for i in range(100)]
        doomed = [sched.call_after(2e6 + i, lambda: None) for i in range(900)]
        for event in doomed:
            event.cancel()
        # Far-future events never popped, yet the queue shrank in place.
        assert len(sched._queue) <= 200
        assert sched.pending() == len(keep)

    def test_small_queues_skip_compaction(self, clock):
        """Below the dead-entry floor the heap is left alone (no rebuild
        churn for tiny queues)."""
        sched = EventScheduler(clock)
        events = [sched.call_after(1e6 + i, lambda: None) for i in range(20)]
        for event in events[:15]:
            event.cancel()
        assert len(sched._queue) == 20  # >50% dead but under the floor
        assert sched.pending() == 5

    def test_cancelled_events_dropped_on_pop(self, clock):
        sched = EventScheduler(clock)
        fired = []
        live = sched.call_after(10.0, lambda: fired.append("live"))
        dead = sched.call_after(5.0, lambda: fired.append("dead"))
        dead.cancel()
        clock.sleep(20.0)
        assert fired == ["live"]
        assert live._fired
        assert sched.pending() == 0
        assert sched._queue == []

    def test_pending_exact_through_mixed_churn(self, clock):
        import random

        rnd = random.Random(7)
        sched = EventScheduler(clock)
        events = [sched.call_after(rnd.uniform(0, 500), lambda: None)
                  for _ in range(200)]
        cancelled = set(rnd.sample(range(200), 80))
        for i in cancelled:
            events[i].cancel()
        assert sched.pending() == 120
        clock.sleep(250.0)
        expected = sum(
            1 for i, e in enumerate(events)
            if i not in cancelled and not e._fired
        )
        assert sched.pending() == expected
        clock.sleep(300.0)
        assert sched.pending() == 0

    def test_cancel_half_fire_half(self, clock):
        sched = EventScheduler(clock)
        fired = []
        events = [
            sched.call_after(float(i + 1), lambda i=i: fired.append(i))
            for i in range(20)
        ]
        for event in events[::2]:
            event.cancel()
        clock.sleep(30.0)
        assert sorted(fired) == list(range(1, 20, 2))

    def test_compaction_mid_drain_keeps_fire_order(self, clock):
        """An action that cancels enough events to compact the heap while
        it is being drained leaves the remaining due events firing in
        ``(when, sequence)`` order."""
        sched = EventScheduler(clock)
        compactions = []
        compact = sched._compact

        def counting_compact():
            compactions.append(len(sched._queue))
            compact()

        sched._compact = counting_compact
        t0 = clock.now()
        fired = []
        # Half the doomed events are due in this drain, half are not.
        doomed = [
            sched.call_at(t0 + 1.5 + i * 0.1, lambda: fired.append("doomed"))
            for i in range(100)
        ]

        def cancel_doomed():
            fired.append("cancel")
            for event in doomed:
                event.cancel()

        sched.call_at(t0 + 1.0, cancel_doomed)
        for label, when in (("a", 2.0), ("b", 1.0), ("c", 3.0), ("d", 2.0), ("e", 1.0)):
            sched.call_at(t0 + when, lambda label=label: fired.append(label))
        clock.sleep(6.0)
        assert compactions, "the cancelling action never triggered a compaction"
        assert fired == ["cancel", "b", "e", "a", "d", "c"]
        assert sched.pending() == 0
        sched.call_after(1.0, lambda: fired.append("later"))
        clock.sleep(1.0)
        assert fired[-1] == "later"

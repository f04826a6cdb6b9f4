"""Property-based tests for simulated time and the TSC."""

from hypothesis import given, settings, strategies as st

from repro.hardware.tsc import TimestampCounter
from repro.simtime.clock import SimClock
from repro.simtime.scheduler import EventBatch, EventScheduler

durations = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=30
)


@given(durations)
def test_clock_is_monotone(sleeps):
    clock = SimClock()
    previous = clock.now()
    for duration in sleeps:
        clock.sleep(duration)
        assert clock.now() >= previous
        previous = clock.now()


@given(durations)
def test_total_elapsed_is_sum(sleeps):
    clock = SimClock()
    start = clock.now()
    for duration in sleeps:
        clock.sleep(duration)
    assert clock.now() - start <= sum(sleeps) * (1 + 1e-9) + 1e-6
    assert clock.now() - start >= sum(sleeps) * (1 - 1e-9) - 1e-6


@given(st.lists(st.floats(min_value=0.01, max_value=1e5), min_size=1, max_size=20))
def test_all_scheduled_events_fire_exactly_once(delays):
    clock = SimClock()
    sched = EventScheduler(clock)
    fired = []
    for i, delay in enumerate(delays):
        sched.call_after(delay, lambda i=i: fired.append(i))
    clock.sleep(max(delays) + 1.0)
    assert sorted(fired) == list(range(len(delays)))
    clock.sleep(1e6)
    assert len(fired) == len(delays)


@given(
    st.floats(min_value=0.0, max_value=1e8),
    st.floats(min_value=1e9, max_value=4e9),
    st.floats(min_value=0.0, max_value=1e7),
)
@settings(max_examples=60)
def test_tsc_monotone_and_linear(boot_age, freq, dt):
    tsc = TimestampCounter(boot_time=0.0, actual_frequency_hz=freq)
    t0 = boot_age
    a = tsc.read(t0)
    b = tsc.read(t0 + dt)
    assert b >= a
    # Integer truncation plus double-precision rounding at ~1e16 ticks.
    tolerance = 2.0 + (abs(a) + abs(b)) * 1e-15
    assert abs((b - a) - dt * freq) <= tolerance


# One step of a scheduler workload: an ordinary event (optionally
# scheduling a follow-up, or a block, when it fires), a block of k events,
# a cancellation, a mass cancellation (drives heap compaction), or a sleep.
delays = st.floats(min_value=0.0, max_value=50.0)
steps = st.one_of(
    st.tuples(st.just("call"), delays, st.none() | delays, st.booleans()),
    st.tuples(st.just("block"), st.lists(delays, min_size=1, max_size=12)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=400)),
    st.tuples(st.just("cancel_block"), st.integers(min_value=0, max_value=400)),
    st.tuples(st.just("cancel_all")),
    st.tuples(st.just("sleep"), st.floats(min_value=0.0, max_value=40.0)),
)


class _World:
    """Runs a workload; ``batched`` routes blocks through one EventBatch."""

    def __init__(self, batched: bool) -> None:
        self.clock = SimClock()
        self.sched = EventScheduler(self.clock)
        self.batched = batched
        self.log: list[tuple[str, float]] = []
        self.events = []  # ordinary events, in registration order
        self.block_items = []  # (label, event or sequence), in push order
        self.stale: set[int] = set()
        self.batch = EventBatch(self.sched)
        self.n = 0

    def _record(self, label):
        self.log.append((label, self.clock.now()))

    def __call__(self) -> None:  # the batch's wakeup action
        for _when, sequence, label in self.batch.take_due(self):
            if sequence not in self.stale:
                self._record(label)

    def call(self, delay, follow, push) -> None:
        label = f"e{self.n}"
        self.n += 1

        def action():
            self._record(label)
            if follow is not None:
                self.call(follow, None, False)
            if push:
                self.block([1.0, 0.0, follow or 0.0])

        self.events.append(self.sched.call_after(delay, action))

    def block(self, block_delays) -> None:
        now = self.clock.now()
        labels = [f"b{self.n}.{i}" for i in range(len(block_delays))]
        self.n += 1
        whens = [now + delay for delay in block_delays]
        if self.batched:
            first = self.batch.push(whens, labels, self)
            self.block_items += [(label, first + i) for i, label in enumerate(labels)]
        else:
            for when, label in zip(whens, labels):
                event = self.sched.call_at(when, lambda label=label: self._record(label))
                self.block_items.append((label, event))

    def cancel_block(self, i) -> None:
        if not self.block_items:
            return
        _label, handle = self.block_items[i % len(self.block_items)]
        if self.batched:
            self.stale.add(handle)
        else:
            handle.cancel()

    def run(self, workload) -> list[tuple[str, float]]:
        for step in workload:
            kind = step[0]
            if kind == "call":
                self.call(*step[1:])
            elif kind == "block":
                self.block(step[1])
            elif kind == "cancel" and self.events:
                self.events[step[1] % len(self.events)].cancel()
            elif kind == "cancel_block":
                self.cancel_block(step[1])
            elif kind == "cancel_all":
                for event in self.events:
                    event.cancel()
                for i in range(len(self.block_items)):
                    self.cancel_block(i)
                if self.batched:
                    self.batch.retain(lambda entry: entry[1] not in self.stale)
            elif kind == "sleep":
                self.clock.sleep(step[1])
        while self.sched.pending():
            self.clock.sleep(1e3)
        return self.log


@given(st.lists(steps, max_size=80))
@settings(max_examples=150, deadline=None)
def test_reserved_block_fires_like_separate_call_ats(workload):
    plain, batched = _World(batched=False), _World(batched=True)
    assert batched.run(workload) == plain.run(workload)
    # Reservations draw the numbers k call_ats would have drawn.
    assert batched.sched._counter.value == plain.sched._counter.value
    assert batched.sched.pending() == plain.sched.pending() == 0


def test_reserved_block_survives_compaction_mid_drain():
    """Enough cancellations to compact the heap, interleaved with a block."""
    workload = [("call", 1.0 + i, None, False) for i in range(100)]
    workload += [("block", [0.5 + i for i in range(12)]), ("cancel_all",)]
    workload += [("call", 2.0 + i, 1.0, True) for i in range(30)]
    workload += [("block", [3.0 + i / 3 for i in range(12)]), ("sleep", 5.0)]
    plain, batched = _World(batched=False), _World(batched=True)
    assert batched.run(workload) == plain.run(workload)
    assert len(plain.log) > 50

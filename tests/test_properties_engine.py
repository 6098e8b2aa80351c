"""Property-based test of the event engine against a sorted-list model.

Random programs of ``schedule_at`` / ``schedule_after`` calls (with many
equal timestamps), cancellations before and between runs, and callbacks
that schedule follow-up events are played on a :class:`Simulator` and on
a reference that keeps every pending event in a list sorted by
``(time, seq)``. Dispatch order, the clock and every engine counter must
agree after each run.
"""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulator

#: Few distinct values, so most events share a timestamp with another.
OFFSETS = st.sampled_from([0.0, 1.0, 2.0, 5.0])
CHILD = st.none() | st.sampled_from([0.0, 1.0, 2.0])
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), OFFSETS, CHILD),
        st.tuples(st.just("after"), OFFSETS, CHILD),
        st.tuples(st.just("cancel"), st.integers(0, 63), st.none()),
    ),
    max_size=30,
)
UNTIL = st.none() | st.sampled_from([0.0, 1.0, 2.0, 4.0, 10.0])


class Reference:
    """The engine's contract, stated with a sorted list.

    Entries are ``[time, seq, child_delay, cancelled]``; ``(time, seq)``
    is unique, so the list order is the dispatch order.
    """

    def __init__(self) -> None:
        self.pending = []
        self.entries = []
        self.now = 0.0
        self.log = []
        self.processed = 0
        self.cancelled = 0

    def schedule(self, time, child):
        entry = [time, len(self.entries), child, False]
        self.entries.append(entry)
        bisect.insort(self.pending, entry)

    def cancel(self, index):
        self.entries[index][3] = True

    def run(self, until):
        while self.pending:
            entry = self.pending[0]
            if entry[3]:
                del self.pending[0]
                self.cancelled += 1
                continue
            if until is not None and entry[0] > until:
                break
            del self.pending[0]
            self.now = entry[0]
            self.log.append(entry[1])
            self.processed += 1
            if entry[2] is not None:
                self.schedule(self.now + entry[2], None)
        if until is not None:
            self.now = max(self.now, until)

    @property
    def pending_events(self):
        return sum(1 for entry in self.pending if not entry[3])


class Harness:
    """Plays one program on a real engine, logging dispatches by seq."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.events = []
        self.log = []

    def _callback(self, label, child):
        def fire():
            self.log.append(label)
            if child is not None:
                self.schedule_after(child, None)

        return fire

    def schedule_at(self, time, child):
        label = len(self.events)
        self.events.append(
            self.sim.schedule_at(time, self._callback(label, child))
        )

    def schedule_after(self, delay, child):
        label = len(self.events)
        self.events.append(
            self.sim.schedule_after(delay, self._callback(label, child))
        )


def play(ops, harness, reference):
    for kind, value, child in ops:
        if kind == "cancel":
            if harness.events:
                index = value % len(harness.events)
                harness.events[index].cancel()
                reference.cancel(index)
        elif kind == "at":
            time = harness.sim.now + value
            harness.schedule_at(time, child)
            reference.schedule(time, child)
        else:
            harness.schedule_after(value, child)
            reference.schedule(reference.now + value, child)


def assert_agree(harness, reference):
    sim = harness.sim
    assert harness.log == reference.log
    assert sim.now == reference.now
    assert sim.events_processed == reference.processed
    assert sim.events_cancelled == reference.cancelled
    assert sim.events_scheduled == len(reference.entries)
    assert sim.pending_events == reference.pending_events


@settings(max_examples=200)
@given(first=OPS, until=UNTIL, second=OPS)
def test_engine_matches_sorted_reference(first, until, second):
    harness, reference = Harness(), Reference()
    play(first, harness, reference)
    harness.sim.run(until=until)
    reference.run(until)
    assert_agree(harness, reference)

    play(second, harness, reference)
    harness.sim.run()
    reference.run(None)
    assert_agree(harness, reference)

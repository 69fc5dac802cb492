from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from actrsim.errors import TimeInPast
from actrsim.scheduler import Event, EventQueue


def test_schedule_and_pop():
    q = EventQueue()
    q.schedule(Fraction(1, 20), 0, "apply")
    event = q.pop_next()
    assert event.payload == "apply"
    assert q.now() == Fraction(1, 20)


def test_schedule_in_past_rejected():
    q = EventQueue()
    q.schedule(1, 0, "a")
    q.pop_next()
    with pytest.raises(TimeInPast):
        q.schedule(0, 0, "b")


def test_advance_moves_the_clock_forward_only_up_to_the_next_event():
    q = EventQueue()
    q.advance(3)
    assert q.now() == 3
    with pytest.raises(TimeInPast):
        q.schedule(2, 0, "a")
    with pytest.raises(TimeInPast):
        q.advance(2)
    q.schedule(5, 0, "b")
    q.advance(5)
    with pytest.raises(TimeInPast):  # past the queued event, which would then pop in the past
        q.advance(6)
    assert q.now() == 5 and q.pop_next().payload == "b"


def test_fifo_among_exact_ties():
    q = EventQueue()
    q.schedule(1.0, 0, "first")
    q.schedule(1.0, 0, "second")
    assert [q.pop_next().payload for _ in range(2)] == ["first", "second"]


def test_higher_priority_pops_first_within_instant():
    q = EventQueue()
    q.schedule(1.0, -10, "late")
    q.schedule(1.0, 0, "early")
    assert [q.pop_next().payload for _ in range(2)] == ["early", "late"]


def test_time_dominates_priority():
    q = EventQueue()
    q.schedule(1.0, 100, "later")
    q.schedule(0.5, -10, "sooner")
    assert [q.pop_next().payload for _ in range(2)] == ["sooner", "later"]


def test_pop_empty_returns_none():
    q = EventQueue()
    assert q.pop_next() is None
    assert q.peek_time() is None


def test_fresh_queue_clock_is_zero():
    assert EventQueue().now() == 0


schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=50),
              st.integers(min_value=-20, max_value=20)),
    max_size=40,
)


@given(schedules)
def test_pop_order_is_total_and_deterministic(entries):
    q1, q2 = EventQueue(), EventQueue()
    for i, (t, p) in enumerate(entries):
        q1.schedule(t, p, i)
        q2.schedule(t, p, i)
    order1 = [q1.pop_next() for _ in entries]
    order2 = [q2.pop_next() for _ in entries]
    assert [e.payload for e in order1] == [e.payload for e in order2]
    keys = [(e.time, -e.priority, e.seq) for e in order1]
    assert keys == sorted(keys)


@given(schedules)
def test_clock_is_monotone(entries):
    q = EventQueue()
    for i, (t, p) in enumerate(entries):
        q.schedule(t, p, i)
    previous = q.now()
    while (event := q.pop_next()) is not None:
        assert q.now() == event.time >= previous
        previous = q.now()


@given(schedules)
def test_popped_events_are_the_records_the_constructor_builds(entries):
    q = EventQueue()
    for i, (t, p) in enumerate(entries):
        q.schedule(t, p, f"payload {i}")
    expected = sorted((Event(t, p, i, f"payload {i}") for i, (t, p) in enumerate(entries)),
                      key=lambda e: (e.time, -e.priority, e.seq))
    for record in expected:
        event = q.pop_next()
        assert type(event) is Event and event == record
        assert (event.time, event.priority, event.seq, event.payload) == tuple(record)
        assert event.payload == record.payload and event.priority == record.priority
        moved = event._replace(priority=event.priority + 1, payload=None)
        assert type(moved) is Event
        assert moved == record._replace(priority=record.priority + 1, payload=None)
    assert q.pop_next() is None

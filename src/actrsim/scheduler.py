"""Discrete-event queue ordered by time, then priority, then insertion.

Pop order: ascending time; within one instant, descending priority (a higher
number runs earlier); among exact ties, insertion order. The clock never
moves backwards. The heap holds plain ``(time, -priority, seq, payload)``
tuples, so ordering is one tuple comparison; ``seq`` is unique, so payloads
are never compared. Times may be any ordered numbers; the engine uses
integer millisecond ticks, so equal instants compare equal without
tolerances and without rational arithmetic.
"""

import heapq
from typing import Any, NamedTuple

from .errors import TimeInPast


class Event(NamedTuple):
    time: Any
    priority: int
    seq: int
    payload: Any


_record = tuple.__new__  # an Event from a tuple of its fields, as in model.py


class EventQueue:
    def __init__(self):
        self._heap: list[tuple] = []
        self._clock = 0
        self._seq = 0

    def now(self):
        return self._clock

    def __len__(self):
        return len(self._heap)

    def schedule(self, time, priority: int, payload) -> None:
        if time < self._clock:
            raise TimeInPast(f"cannot schedule at {time} before clock {self._clock}")
        heapq.heappush(self._heap, (time, -priority, self._seq, payload))
        self._seq += 1

    def advance(self, time) -> None:
        """Move the clock to time, as popping an event at time would.

        The clock may not move back, nor past a queued event.
        """
        if time < self._clock or self._heap and self._heap[0][0] < time:
            raise TimeInPast(f"cannot move the clock from {self._clock} to {time} "
                             f"with the next event at {self.peek_time()}")
        self._clock = time

    def peek_time(self):
        """Time of the next event without popping, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def pop_next(self) -> Event | None:
        """Pop the least event and advance the clock to its time."""
        if not self._heap:
            return None
        time, negated, seq, payload = heapq.heappop(self._heap)
        self._clock = time
        return _record(Event, (time, -negated, seq, payload))

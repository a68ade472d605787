"""Event primitives for the discrete-event kernel.

Events carry a fire time, a stable sequence number (ties are broken in
scheduling order, which makes runs deterministic), a callback and its
arguments.  :class:`EventQueue` is a thin, fully tested wrapper around
:mod:`heapq` that also supports cancellation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue"]


@dataclass(order=False)
class Event:
    """A single scheduled callback.

    Attributes:
        time: Simulated time (seconds) at which the event fires.
        seq: Monotonically increasing tie-breaker assigned by the queue.
        callback: Callable invoked when the event fires.
        args: Positional arguments passed to ``callback``.
        cancelled: When true the kernel silently drops the event.
    """

    time: float
    seq: int
    callback: Callable[..., Any]
    args: tuple = field(default_factory=tuple)
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class EventQueue:
    """A min-heap of :class:`Event` objects ordered by (time, seq).

    The queue assigns sequence numbers itself so that two events scheduled
    for the same instant fire in the order they were scheduled.  Cancelled
    events stay in the heap but are skipped on ``pop`` (lazy deletion).
    The heap holds ``(time, seq, event)`` tuples: ``seq`` is unique, so
    :mod:`heapq` orders them in C without ever comparing two events.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at ``time`` and return the event.

        Raises:
            SimulationError: if ``time`` is NaN or negative.
        """
        if time != time:  # NaN check without importing math
            raise SimulationError("cannot schedule an event at NaN time")
        if time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time!r}")
        event = Event(time=time, seq=self._next_seq, callback=callback, args=args)
        self._next_seq += 1
        heapq.heappush(self._heap, (time, event.seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            SimulationError: if the queue holds no live events.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if event.cancelled:
                continue
            self._live -= 1
            return event
        raise SimulationError("pop from an empty event queue")

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (idempotent)."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def peek_time(self) -> float:
        """Return the fire time of the earliest live event.

        Raises:
            SimulationError: if the queue holds no live events.
        """
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            raise SimulationError("peek on an empty event queue")
        return self._heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
